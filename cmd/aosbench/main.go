// Command aosbench regenerates the paper's tables and figures.
//
// Usage:
//
//	aosbench -exp all                 # everything
//	aosbench -exp fig14               # one experiment
//	aosbench -exp fig14 -insts 200000 # quicker, scaled run
//	aosbench -exp fig14 -j 8          # matrix over 8 workers
//	aosbench -exp fig14 -json         # machine-readable matrix document
//	aosbench -exp fig14 -sample       # SMARTS sampled simulation (fast, ~2% error)
//	aosbench -benchspeed              # simulator throughput + alloc/speedup gates
//	aosbench -exp all -cpuprofile cpu.pb.gz  # profile a full regeneration
//
// Matrix-style experiments fan out over a bounded worker pool (-j, default
// GOMAXPROCS); results are keyed and ordered by (benchmark, scheme), so -j 1
// and -j N output is byte-identical. Progress goes to stderr: ANSI
// single-line updates on a terminal, plain newline-delimited lines when
// stderr is piped (or with -no-ansi).
//
// Experiments: fig11 fig14 fig15 fig16 fig17 fig18 table1 table2 table3
// resize ablate security schemes all. "security" is the §VII detection
// matrix and "schemes" the normalized-overhead comparison; both cover
// every registered backend (the paper's five plus MTE and the hardened
// allocator).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"aos/internal/experiments"
	"aos/internal/instrument"
	"aos/internal/sampling"
	"aos/internal/telemetry"
	"aos/internal/workload"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (fig11, fig14..fig18, table1..table3, resize, ablate, security, schemes, attacks, all)")
	insts := flag.Uint64("insts", 0, "override per-benchmark instruction budget (0 = profile defaults)")
	seed := flag.Int64("seed", 1, "workload generator seed")
	scale := flag.Uint64("scale", 20, "allocation-count divisor for table2/table3")
	mallocs := flag.Int("mallocs", 1_000_000, "malloc count for fig11")
	workers := flag.Int("j", 0, "parallel jobs for matrix experiments (0 = GOMAXPROCS)")
	jsonOut := flag.Bool("json", false, "emit the evaluation matrix as JSON (matrix-backed experiments only)")
	quiet := flag.Bool("q", false, "suppress progress output")
	noAnsi := flag.Bool("no-ansi", false, "plain newline-delimited progress even on a terminal")
	csv := flag.Bool("csv", false, "emit fig14/fig18 as CSV for plotting")
	sanitize := flag.Bool("sanitize", false, "tee every run through the tracecheck protocol verifier; any violation fails the experiment")
	attackPrograms := flag.Int("attack-programs", 0, "generated programs per attacks-matrix cell (0 = default)")
	timeout := flag.Duration("timeout", 0, "abort in-flight experiments after this duration (0 = no limit); canceled jobs fail with context errors")
	timelinePath := flag.String("timeline", "", "write one matrix cell's Perfetto trace_event JSON timeline to this file (matrix experiments; see -timeline-cell)")
	timelineCell := flag.String("timeline-cell", "mcf/AOS", "matrix cell to record, as benchmark/scheme (with -timeline)")
	timelineInterval := flag.Uint64("timeline-interval", telemetry.DefaultInterval, "telemetry sampling interval in commit cycles (with -timeline)")
	benchspeed := flag.Bool("benchspeed", false, "measure simulator throughput and allocations instead of running an experiment")
	benchout := flag.String("benchout", "BENCH_simspeed.json", "output file for -benchspeed results")
	benchruns := flag.Int("benchruns", 3, "measurement repetitions for -benchspeed")
	maxAllocs := flag.Float64("max-allocs-per-inst", -1, "with -benchspeed: exit 1 when the best run allocates more than this per simulated instruction (<0 = no gate)")
	minEffSpeedup := flag.Float64("min-effective-speedup", -1, "with -benchspeed: exit 1 when the sampled mode's effective speedup over the exact path is below this (<0 = no gate)")
	sample := flag.Bool("sample", false, "SMARTS sampled simulation: only measurement windows run the detailed timing model; cycle figures become window-CPI extrapolations (architectural counts stay exact)")
	sampleWindows := flag.Int("sample-windows", 0, "with -sample: measurement windows per run (0 = default, "+fmt.Sprint(sampling.DefaultWindows)+")")
	sampleGap := flag.Uint64("sample-gap", 0, "with -sample: fast-forward gap between windows in instructions (0 = derived so windows tile the region)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	traceFile := flag.String("trace", "", "write a runtime execution trace to this file")
	flag.Parse()
	if err := checkFlags(cliFlags{
		exp: *exp, mallocs: *mallocs, csv: *csv, json: *jsonOut, attackPrograms: *attackPrograms,
		timeline: *timelinePath, timelineInterval: *timelineInterval,
		sample: *sample, sampleWindows: *sampleWindows, sampleGap: *sampleGap,
	}); err != nil {
		fatal(err)
	}

	stopProf, err := startProfiling(*cpuprofile, *memprofile, *traceFile)
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	if *benchspeed {
		if err := benchSpeed(*insts, *benchruns, *benchout, *maxAllocs, *minEffSpeedup); err != nil {
			stopProf()
			fatal(err)
		}
		return
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// One memo for the whole invocation: with -exp all, a cell that an
	// earlier experiment finished is not simulated again.
	o := experiments.Options{Instructions: *insts, Seed: *seed, Workers: *workers, Sanitize: *sanitize, Context: ctx,
		Memo: new(experiments.Memo)}
	if *sample {
		o.Sampling = &sampling.Schedule{Windows: *sampleWindows, Gap: *sampleGap}
	}
	ansi := !*noAnsi && stderrIsTerminal()
	if !*quiet {
		o.Progress = func(ev experiments.Event) {
			line := ev.Label
			if ev.Total > 0 {
				line = fmt.Sprintf("[%d/%d] %s (%s)", ev.Completed, ev.Total, ev.Label, ev.Wall.Round(time.Millisecond))
			}
			if ev.Err != nil {
				line += ": ERROR: " + ev.Err.Error()
			}
			if ansi {
				fmt.Fprintf(os.Stderr, "\r\033[K%s", line)
			} else {
				fmt.Fprintln(os.Stderr, line)
			}
		}
	}
	done := func() {
		if !*quiet && ansi {
			fmt.Fprint(os.Stderr, "\r\033[K")
		}
	}

	// -timeline runs its matrix cell once more after the matrix, with
	// the flight recorder on. Cells are deterministic and telemetry is
	// passive, so the recorded run is the matrix's cell.
	var timelineSpec experiments.SimSpec
	if *timelinePath != "" {
		bench, schemeStr, ok := strings.Cut(*timelineCell, "/")
		if !ok {
			fatal(fmt.Errorf("-timeline-cell must be benchmark/scheme, got %q", *timelineCell))
		}
		if _, ok := workload.ByName(bench); !ok {
			fatal(fmt.Errorf("-timeline-cell: unknown benchmark %q", bench))
		}
		cellScheme, err := instrument.ParseScheme(schemeStr)
		if err != nil {
			fatal(fmt.Errorf("-timeline-cell: %w", err))
		}
		timelineSpec = experiments.SimSpec{Benchmark: bench, Scheme: cellScheme.String(),
			Instructions: *insts, Seed: *seed, Sanitize: *sanitize}
		if *sample {
			timelineSpec.Sampling = &experiments.SamplingSpec{Windows: *sampleWindows, Gap: *sampleGap}
		}
	}

	var matrix *experiments.Matrix
	var matrixWall time.Duration
	if matrixExps[*exp] {
		start := time.Now() //aoslint:allow detrand — wall duration is reported as metadata, never in results
		var err error
		matrix, err = experiments.RunMatrix(o)
		matrixWall = time.Since(start) //aoslint:allow detrand — metadata only (see above)
		done()
		if err != nil {
			// The matrix keeps every successful job's result, but a partial
			// matrix would render misleading figures — report and abort.
			fmt.Fprintln(os.Stderr, "aosbench: matrix jobs failed:", err)
			os.Exit(1)
		}
	}

	if *timelinePath != "" {
		_, tl, err := experiments.RunSpecFull(ctx, timelineSpec, experiments.RunConfig{TelemetryInterval: *timelineInterval})
		if err != nil {
			fatal(fmt.Errorf("-timeline: %w", err))
		}
		if err := tl.WriteTraceFile(*timelinePath, "aosbench "+*timelineCell, os.Stderr); err != nil {
			fatal(err)
		}
	}

	if *jsonOut && *exp != "attacks" {
		doc, err := experiments.MatrixDocument(matrix, o, matrixWall)
		if err != nil {
			fatal(err)
		}
		out, err := doc.JSON()
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(out))
		return
	}

	runExp := func(name string) {
		switch name {
		case "fig11":
			r, err := experiments.Fig11(*mallocs)
			if err != nil {
				fatal(err)
			}
			fmt.Println(r)
		case "fig14":
			r, err := experiments.Fig14(matrix)
			if err != nil {
				fatal(err)
			}
			if *csv {
				fmt.Print(r.CSV())
			} else {
				fmt.Println(r)
			}
		case "fig15":
			r, err := experiments.Fig15(o)
			if err != nil {
				fatal(err)
			}
			done()
			fmt.Println(r)
		case "fig16":
			rows, err := experiments.Fig16(matrix)
			if err != nil {
				fatal(err)
			}
			fmt.Println(experiments.Fig16String(rows))
		case "fig17":
			rows, err := experiments.Fig17(matrix)
			if err != nil {
				fatal(err)
			}
			fmt.Println(experiments.Fig17String(rows))
		case "fig18":
			r, err := experiments.Fig18(matrix)
			if err != nil {
				fatal(err)
			}
			if *csv {
				fmt.Print(r.CSV())
			} else {
				fmt.Println(r)
			}
		case "table1":
			fmt.Println(experiments.Table1String())
		case "table2":
			rows, err := experiments.MemProfiles("spec", *scale, o)
			if err != nil {
				fatal(err)
			}
			done()
			fmt.Println(experiments.MemProfilesString(
				"Table II: SPEC 2006 memory usage profiles", rows, workload.SPEC(), *scale))
		case "table3":
			rows, err := experiments.MemProfiles("realworld", *scale, o)
			if err != nil {
				fatal(err)
			}
			done()
			fmt.Println(experiments.MemProfilesString(
				"Table III: real-world benchmark memory usage profiles", rows, workload.RealWorld(), *scale))
		case "resize":
			r, err := experiments.ResizeStudy(o)
			if err != nil {
				fatal(err)
			}
			done()
			fmt.Println(r)
		case "ablate":
			r, err := experiments.Ablations(o)
			if err != nil {
				fatal(err)
			}
			done()
			fmt.Println(r)
		case "security":
			out, err := experiments.SecurityMatrix()
			if err != nil {
				fatal(err)
			}
			fmt.Println(out)
		case "schemes":
			r, err := experiments.SchemeOverhead(o)
			if err != nil {
				fatal(err)
			}
			done()
			fmt.Println(r)
		case "attacks":
			r, err := experiments.AttackMatrix(o, *attackPrograms, uint64(*seed))
			if err != nil {
				fatal(err)
			}
			done()
			if *jsonOut {
				out, err := r.Document().JSON()
				if err != nil {
					fatal(err)
				}
				fmt.Println(string(out))
			} else {
				fmt.Println(r)
			}
		default:
			fatal(fmt.Errorf("unknown experiment %q", name))
		}
	}

	if *exp == "all" {
		for _, name := range []string{"table1", "fig11", "table2", "table3",
			"fig14", "fig16", "fig17", "fig18", "fig15", "resize", "ablate", "security", "schemes"} {
			runExp(name)
			fmt.Println()
		}
		return
	}
	runExp(*exp)
}

// matrixExps are the experiments rendered from the evaluation matrix.
var matrixExps = map[string]bool{"fig14": true, "fig16": true, "fig17": true, "fig18": true, "all": true}

// cliFlags holds the flags checkFlags validates.
type cliFlags struct {
	exp              string
	mallocs          int
	csv, json        bool
	attackPrograms   int
	timeline         string
	timelineInterval uint64
	sample           bool
	sampleWindows    int
	sampleGap        uint64
}

// checkFlags rejects flags that are invalid or that the chosen experiment
// would ignore, so a bad command line fails before any simulation runs.
func checkFlags(f cliFlags) error {
	switch {
	case f.mallocs < 1:
		return fmt.Errorf("-mallocs must be at least 1, got %d", f.mallocs)
	case f.csv && f.exp != "fig14" && f.exp != "fig18" && f.exp != "all":
		return fmt.Errorf("-csv applies to fig14, fig18 and all, not %q", f.exp)
	case f.json && !matrixExps[f.exp] && f.exp != "attacks":
		return errors.New("-json requires a matrix-backed experiment (fig14, fig16, fig17, fig18, all) or -exp attacks")
	case f.attackPrograms != 0 && f.exp != "attacks":
		return fmt.Errorf("-attack-programs applies to -exp attacks, not %q", f.exp)
	case f.attackPrograms < 0 || f.attackPrograms > 1<<16:
		return fmt.Errorf("-attack-programs must be in 0..65536, got %d", f.attackPrograms)
	case f.timeline != "" && !matrixExps[f.exp]:
		return errors.New("-timeline requires a matrix-backed experiment (fig14, fig16, fig17, fig18, all)")
	case f.timeline != "" && f.timelineInterval == 0:
		return errors.New("-timeline-interval must be at least 1")
	case !f.sample && (f.sampleWindows != 0 || f.sampleGap != 0):
		return errors.New("-sample-windows and -sample-gap require -sample")
	}
	return nil
}

// stderrIsTerminal reports whether stderr is attached to a character
// device, so piped and CI logs get plain newline-delimited progress
// instead of raw ANSI erase sequences.
func stderrIsTerminal() bool {
	fi, err := os.Stderr.Stat()
	if err != nil {
		return false
	}
	return fi.Mode()&os.ModeCharDevice != 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "aosbench:", err)
	os.Exit(1)
}
