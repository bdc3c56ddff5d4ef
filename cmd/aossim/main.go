// Command aossim runs one workload under one protection scheme and prints
// a detailed timing and behaviour report — the single-run working tool the
// experiment harness is built from.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"aos"
	"aos/internal/cpu"
	"aos/internal/isa"
	"aos/internal/telemetry"
	"aos/internal/trace"
	"aos/internal/tracecheck"
)

func main() {
	wl := flag.String("workload", "gcc", "benchmark name (see -list)")
	schemeName := flag.String("scheme", "AOS", "protection scheme (case-insensitive): Baseline | Watchdog | PA | AOS | PA+AOS | MTE | Hardened")
	insts := flag.Uint64("insts", 0, "program-instruction budget override")
	seed := flag.Int64("seed", 1, "workload seed")
	list := flag.Bool("list", false, "list available workloads")
	noL1B := flag.Bool("no-l1b", false, "disable the L1 bounds cache")
	noComp := flag.Bool("no-compression", false, "disable bounds compression")
	noBWB := flag.Bool("no-bwb", false, "disable the bounds way buffer")
	noFwd := flag.Bool("no-forwarding", false, "disable bounds forwarding")
	record := flag.String("record", "", "record the dynamic instruction stream to this trace file")
	pipetrace := flag.Int("pipetrace", 0, "print pipeline timestamps for the first N instructions")
	replay := flag.String("replay", "", "replay a recorded trace through the timing core (runs no workload: rejects -workload, -insts, -seed and the -no-* flags)")
	attackClass := flag.String("attack", "", "generate and grade one heap-attack program of this class under every scheme (see internal/security.ClassNames; runs no workload: rejects -workload, -insts and the -no-* flags)")
	attackTrace := flag.String("attack-trace", "", "with -attack: when the program evades -scheme, write the minimized escape's trace here (replayable with -replay)")
	nocheck := flag.Bool("nocheck", false, "disable the always-on tracecheck protocol sanitizer")
	timeline := flag.String("timeline", "", "record cycle-sampled telemetry and write a Perfetto trace_event JSON timeline to this file")
	timelineInterval := flag.Uint64("timeline-interval", telemetry.DefaultInterval, "telemetry sampling interval in commit cycles (with -timeline)")
	flag.Parse()
	set := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := checkFlags(cliFlags{
		attack: *attackClass, attackTrace: *attackTrace, replay: *replay,
		record: *record, pipetrace: *pipetrace,
		timeline: *timeline, timelineInterval: *timelineInterval,
		set: set,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "aossim:", err)
		os.Exit(1)
	}

	if *list {
		var names []string
		for _, w := range aos.SPECWorkloads() {
			names = append(names, w.Name)
		}
		fmt.Println("SPEC 2006:", strings.Join(names, " "))
		names = names[:0]
		for _, w := range aos.RealWorldWorkloads() {
			names = append(names, w.Name)
		}
		fmt.Println("real-world:", strings.Join(names, " "))
		return
	}

	scheme, err := aos.ParseScheme(*schemeName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aossim: %v\n", err)
		os.Exit(1)
	}

	if *replay != "" {
		// The trace format does not record the scheme; -scheme tells the
		// checker which contract the recorded stream promised.
		replayTrace(*replay, scheme, !*nocheck)
		return
	}

	if *attackClass != "" {
		if err := runAttack(*attackClass, scheme, uint64(*seed), *attackTrace); err != nil {
			fmt.Fprintln(os.Stderr, "aossim:", err)
			os.Exit(1)
		}
		return
	}

	w, ok := aos.WorkloadByName(*wl)
	if !ok {
		fmt.Fprintf(os.Stderr, "aossim: unknown workload %q (try -list)\n", *wl)
		os.Exit(1)
	}

	opts := aos.Options{
		Scheme:             scheme,
		Seed:               *seed,
		Instructions:       *insts,
		DisableL1B:         *noL1B,
		DisableCompression: *noComp,
		DisableBWB:         *noBWB,
		DisableForwarding:  *noFwd,
		Sanitize:           !*nocheck,
	}
	if *timeline != "" {
		opts.TelemetryInterval = *timelineInterval
	}
	var r aos.Result
	switch {
	case *pipetrace > 0:
		r, err = runPipetrace(w, opts, *pipetrace)
	case *record != "":
		r, err = runRecorded(w, opts, *record)
	default:
		r, err = aos.Run(w, opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "aossim:", err)
		os.Exit(1)
	}
	if *timeline != "" {
		proc := fmt.Sprintf("aossim %s/%s", w.Name, scheme)
		if err := r.Timeline.WriteTraceFile(*timeline, proc, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "aossim:", err)
			os.Exit(1)
		}
	}

	fmt.Printf("workload %s under %s\n", w.Name, scheme)
	fmt.Printf("  cycles           %12d\n", r.Cycles)
	fmt.Printf("  instructions     %12d\n", r.Insts)
	fmt.Printf("  IPC              %12.3f\n", r.IPC())
	fmt.Printf("  branch mispred   %12d (%.2f%%)\n", r.Branch.Mispredicts, 100*r.Branch.Rate())
	fmt.Printf("  L1-D miss rate   %12.3f\n", r.L1D.MissRate())
	if r.L1B != nil {
		fmt.Printf("  L1-B miss rate   %12.3f\n", r.L1B.MissRate())
	}
	fmt.Printf("  L2 miss rate     %12.3f\n", r.L2.MissRate())
	fmt.Printf("  DRAM accesses    %12d\n", r.DRAMAccesses)
	fmt.Printf("  traffic L1<->L2  %12d bytes\n", r.Traffic.L1ToL2)
	fmt.Printf("  traffic L2<->MEM %12d bytes\n", r.Traffic.L2ToDRAM)
	fmt.Printf("  checked ops      %12d\n", r.CheckedOps)
	fmt.Printf("  bounds accesses  %12d (%.3f per checked op)\n", r.BoundsAccesses,
		perOp(r.BoundsAccesses, r.CheckedOps))
	fmt.Printf("  BWB hit rate     %12.3f\n", r.BWB.HitRate())
	fmt.Printf("  bounds forwards  %12d\n", r.Forwards)
	fmt.Printf("  retire delay     %12d cycles\n", r.RetireDelay)
	fmt.Printf("  HBT assoc        %12d (%d resizes)\n", r.HBTAssoc, r.HBTResizes)
	fmt.Printf("  heap             allocs=%d frees=%d maxLive=%d\n", r.Heap.Allocs, r.Heap.Frees, r.Heap.MaxLive)
	fmt.Printf("  violations       %12d\n", len(r.Exceptions))
}

// cliFlags holds the flags checkFlags validates.
type cliFlags struct {
	attack, attackTrace, replay string
	record                      string
	pipetrace                   int
	timeline                    string
	timelineInterval            uint64
	// set names the flags given explicitly on the command line.
	set map[string]bool
}

// workloadFlags configure a workload run, which -attack and -replay skip.
var workloadFlags = []string{"workload", "insts", "no-l1b", "no-compression", "no-bwb", "no-forwarding"}

// checkFlags rejects flags the chosen mode would drop (-replay and -attack
// return before a workload runs; -pipetrace runs the workload without
// recording it), so a bad command line fails before any simulation runs
// instead of exiting 0 with the flag ignored or no file written.
func checkFlags(f cliFlags) error {
	mode := ""
	switch {
	case f.attack != "" && f.replay != "":
		return errors.New("-attack and -replay are separate modes; give one")
	case f.attack != "":
		mode = "-attack"
	case f.replay != "":
		mode = "-replay"
	}
	if mode != "" {
		for _, name := range workloadFlags {
			if f.set[name] {
				return fmt.Errorf("-%s configures a workload run; %s runs none", name, mode)
			}
		}
	}
	switch {
	case f.replay != "" && f.set["seed"]:
		return errors.New("-seed drives the workload generator; -replay runs a recorded trace")
	case f.attackTrace != "" && f.attack == "":
		return errors.New("-attack-trace requires -attack")
	case f.timeline != "" && (f.attack != "" || f.replay != ""):
		return errors.New("-timeline records a workload run; it cannot be combined with -attack or -replay")
	case f.record != "" && (f.attack != "" || f.replay != "" || f.pipetrace > 0):
		return errors.New("-record records a workload run; it cannot be combined with -attack, -replay or -pipetrace")
	case f.pipetrace > 0 && (f.attack != "" || f.replay != ""):
		return errors.New("-pipetrace traces a workload run; it cannot be combined with -attack or -replay")
	case f.timeline != "" && f.timelineInterval == 0:
		return errors.New("-timeline-interval must be at least 1")
	}
	return nil
}

func perOp(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// runRecorded runs the workload while teeing the instruction stream to a
// trace file.
func runRecorded(w *aos.Workload, opts aos.Options, path string) (aos.Result, error) {
	f, err := os.Create(path)
	if err != nil {
		return aos.Result{}, err
	}
	defer f.Close()
	tw, err := trace.NewWriter(f)
	if err != nil {
		return aos.Result{}, err
	}
	sys, err := aos.NewSystem(opts)
	if err != nil {
		return aos.Result{}, err
	}
	sys.TeeSink(tw)
	prof := *w
	if opts.Instructions != 0 {
		prof.Instructions = opts.Instructions
	}
	if err := prof.Run(sys.Machine(), opts.Seed); err != nil {
		return aos.Result{}, err
	}
	if err := tw.Close(); err != nil {
		return aos.Result{}, err
	}
	if err := sys.SanitizeErr(); err != nil {
		return aos.Result{}, err
	}
	fmt.Printf("recorded %d instructions to %s\n", tw.Count(), path)
	return sys.Finalize(), nil
}

// replayTrace replays a trace file through a fresh timing core, checking
// the recorded stream against the scheme's protocol unless disabled.
func replayTrace(path string, scheme aos.Scheme, check bool) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aossim:", err)
		os.Exit(1)
	}
	defer f.Close()
	tr, err := trace.NewReader(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aossim:", err)
		os.Exit(1)
	}
	c := cpu.New(cpu.DefaultConfig())
	sink := isa.Sink(c)
	var chk *tracecheck.Checker
	if check {
		chk = tracecheck.New(scheme)
		sink = isa.MultiSink{c, chk}
	}
	n := trace.Replay(tr, sink)
	if err := tr.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "aossim: trace corrupt:", err)
		os.Exit(1)
	}
	if chk != nil {
		chk.Finish()
		if err := chk.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "aossim: %v\n%s", err, err.(*tracecheck.Error).Report())
			os.Exit(1)
		}
	}
	r := c.Finalize()
	fmt.Printf("replayed %d instructions: cycles=%d IPC=%.3f bounds=%d\n",
		n, r.Cycles, r.IPC(), r.BoundsAccesses)
}

// runPipetrace runs the workload printing pipeline timestamps for the
// first n instructions.
func runPipetrace(w *aos.Workload, opts aos.Options, n int) (aos.Result, error) {
	sys, err := aos.NewSystem(opts)
	if err != nil {
		return aos.Result{}, err
	}
	fmt.Printf("%-28s %8s %8s %8s %8s %8s %8s\n",
		"instruction", "fetch", "dispatch", "issue", "complete", "commit", "mcu")
	count := 0
	sys.Core().SetObserver(func(in *isa.Inst, t cpu.Timestamps) {
		if count >= n {
			return
		}
		count++
		mcu := "-"
		if t.MCUDone != 0 {
			mcu = fmt.Sprint(t.MCUDone)
		}
		fmt.Printf("%-28s %8d %8d %8d %8d %8d %8s\n",
			in.String(), t.Fetch, t.Dispatch, t.Issue, t.Complete, t.Commit, mcu)
	})
	prof := *w
	if opts.Instructions != 0 {
		prof.Instructions = opts.Instructions
	}
	if err := prof.Run(sys.Machine(), opts.Seed); err != nil {
		return aos.Result{}, err
	}
	if err := sys.SanitizeErr(); err != nil {
		return aos.Result{}, err
	}
	return sys.Finalize(), nil
}
