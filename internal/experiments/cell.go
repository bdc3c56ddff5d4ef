package experiments

import (
	"context"
	"fmt"

	"aos/internal/core"
	"aos/internal/cpu"
	"aos/internal/heap"
	"aos/internal/instrument"
	"aos/internal/isa"
	"aos/internal/kernel"
	"aos/internal/sampling"
	"aos/internal/telemetry"
	"aos/internal/tracecheck"
	"aos/internal/workload"
)

// Cell is one simulation cell: a workload profile run under one scheme on
// one machine configuration. Every experiment, the result service and the
// public aos.Run build and drive their machines through a Cell, so two
// cells that agree on these fields report the same numbers.
//
// The zero values of the machine fields are the paper's headline
// configuration (Table IV, all §V optimizations on).
type Cell struct {
	// Profile is the workload. Build accepts a nil profile (a bare
	// machine with the core's default code footprint); Run does not.
	Profile *workload.Profile
	Scheme  instrument.Scheme
	// Seed drives the workload generator (0 means 1).
	Seed int64
	// Instructions overrides the profile's program-instruction budget
	// (0 keeps it).
	Instructions uint64

	// AOS optimization ablations (§V-F, Fig 15).
	DisableL1B         bool
	DisableCompression bool
	DisableBWB         bool
	DisableForwarding  bool
	// MCQSize overrides the memory check queue depth (0 keeps Table IV's).
	MCQSize int
	// InitialHBTAssoc overrides the initial bounds-table associativity
	// (0 keeps Table IV's 1 way).
	InitialHBTAssoc int

	// NoWarmup measures the whole run. By default the cell first runs
	// half a budget to warm caches, predictor and BWB, then resets the
	// timing statistics and measures the full budget — a window of a
	// longer execution, as the paper measures within 3B instructions.
	NoWarmup bool
}

// Summary is a finished cell's outcome. CPU and Counts cover the measured
// region; Heap, Exceptions, HBTAssoc and Resizes cover the whole run. A
// sampled cell's CPU.Cycles is the window-CPI estimate, and every other
// field stays exact.
type Summary struct {
	CPU        cpu.Result
	Counts     isa.Counts
	Heap       heap.Stats
	Exceptions []kernel.Exception
	HBTAssoc   int
	Resizes    int
}

// emitBatch is the machine-side emission batch of every cell. Batching
// reorders nothing, so TestMatrixBatchScalarEquivalence sets it to 1
// (per-instruction emission) and expects an identical matrix.
var emitBatch = core.EmitBatchSize

// Build constructs the cell's functional machine and timing core, with
// the machine's stream wired straight to the core.
func (c Cell) Build() (*core.Machine, *cpu.Core, error) {
	mcfg := core.Config{
		Scheme:             c.Scheme,
		InitialHBTAssoc:    c.InitialHBTAssoc,
		UncompressedBounds: c.DisableCompression,
	}
	if c.Profile != nil {
		mcfg.CodeFootprint = c.Profile.CodeFootprint
	}
	m, err := core.New(mcfg)
	if err != nil {
		return nil, nil, err
	}
	cfg := cpu.DefaultConfig()
	if c.DisableL1B {
		cfg.Caches.L1B = nil
	}
	cfg.MCU.UseBWB = !c.DisableBWB
	cfg.MCU.Forwarding = !c.DisableForwarding
	if c.MCQSize != 0 {
		cfg.MCQSize = c.MCQSize
	}
	cc := cpu.New(cfg)
	m.SetSink(cc)
	return m, cc, nil
}

// Run simulates the cell and summarizes it. Of o it reads only the
// operational fields: Context (polled mid-run), Sanitize and JobID,
// TelemetryInterval and OnTimeline, and Sampling and checkpoints. With
// o.Sampling set the run is SMARTS-sampled: only the schedule's windows
// run the detailed timing model and cycles are extrapolated from their
// CPI; otherwise every program instruction runs in detail (runExact).
func (c Cell) Run(o Options) (Summary, error) {
	ctx := o.ctx()
	if err := ctx.Err(); err != nil {
		return Summary{}, fmt.Errorf("workload %s: canceled before start: %w", c.Profile.Name, err)
	}
	prof := c.Profile.Clone() // an Instructions override must not touch a shared profile
	if c.Instructions != 0 {
		prof.Instructions = c.Instructions
	}
	seed := c.Seed
	if seed == 0 {
		seed = 1
	}
	warmup := prof.Instructions / 2
	if c.NoWarmup {
		warmup = 0
	}

	m, cc, err := c.Build()
	if err != nil {
		return Summary{}, err
	}
	chk := o.sanitizer(c.Scheme, m, cc)
	m.SetBatch(emitBatch)
	var tl *telemetry.Timeline
	if o.TelemetryInterval != 0 {
		tl = telemetry.NewTimeline(telemetry.NewRegistry(), o.TelemetryInterval)
		cc.AttachTelemetry(tl)
		m.AttachTelemetry(tl)
	}

	var warm isa.Counts
	var est *sampling.Estimate
	if o.Sampling == nil {
		warm, err = runExact(ctx, prof, m, cc, seed, warmup, !c.NoWarmup, tl)
	} else {
		warm, est, err = c.runSampled(ctx, o, prof, m, cc, seed, warmup, tl)
	}
	if err != nil {
		return Summary{}, err
	}
	if err := sanitizeErr(chk, prof.Name, c.Scheme); err != nil {
		return Summary{}, err
	}
	if tl != nil && o.OnTimeline != nil {
		o.OnTimeline(prof.Name, c.Scheme, tl)
	}
	res := summarize(m, cc, warm)
	if est != nil {
		res.CPU.Cycles = est.Cycles
	}
	return res, nil
}

// runExact drives the warmup and the measured region through the detailed
// timing model. With warm set, the core's statistics restart once warmup
// program instructions have run; the returned counts are the machine's at
// that boundary (zero without it).
//
// A warmup of at least one sampling U segment (sampling.DefaultDetail)
// runs the workload's set-up — the steady-state heap and the prefault
// loads — in fast-forward mode, as a sampled cell does: set-up still warms
// caches, predictor and BWB, and the detailed warmup settles the pipeline
// before the statistics restart. A shorter warmup keeps set-up in detail,
// and a cell without warmup measures its own. With tl set, a fast-forwarded
// cell records its set-up and its detailed run as timeline slices.
func runExact(ctx context.Context, p *workload.Profile, m *core.Machine, c *cpu.Core, seed int64, warmup uint64, warm bool, tl *telemetry.Timeline) (isa.Counts, error) {
	fast := warm && warmup >= sampling.DefaultDetail
	if fast {
		c.SetMode(cpu.ModeFastForward)
	}
	r, err := workload.NewRunner(p, m, seed)
	if err != nil {
		return isa.Counts{}, err
	}
	var setup sampling.Segment
	if fast {
		m.Flush()
		c.SetMode(cpu.ModeDetailed)
		setup = sampling.Segment{StartCycle: c.LastCommit(), EndCycle: c.LastCommit(), EndInst: c.Insts()}
	}
	total := p.Instructions + warmup
	var atWarm isa.Counts
	var warmInsts uint64
	if warm {
		if err := r.RunTo(ctx, warmup, total); err != nil {
			return isa.Counts{}, err
		}
		// The core must have consumed every pre-boundary instruction
		// before its statistics restart, exactly as in scalar emission.
		m.Flush()
		warmInsts = c.Insts() - setup.EndInst
		c.ResetStats()
		atWarm = m.Counts()
	}
	if err := r.RunTo(ctx, total, total); err != nil {
		return isa.Counts{}, err
	}
	m.Flush()
	if fast && tl != nil {
		addSegmentSlice(tl, setup)
		addSegmentSlice(tl, sampling.Segment{
			Detailed:   true,
			StartCycle: setup.EndCycle, EndCycle: c.LastCommit(),
			EndInst: warmInsts + c.Insts(),
		})
	}
	return atWarm, nil
}

// runSampled drives the stream through sampling.Run with o's U/W/F shape
// over the measured region after warmup, and returns the machine's counts
// at the region's start with the cycle estimate. With a store attached,
// window-boundary checkpoints are addressed by the cell's identity.
func (c Cell) runSampled(ctx context.Context, o Options, p *workload.Profile, m *core.Machine, cc *cpu.Core, seed int64, warmup uint64, tl *telemetry.Timeline) (isa.Counts, *sampling.Estimate, error) {
	sched := *o.Sampling
	sched.Warmup = warmup
	sched, err := sched.Normalize(p.Instructions)
	if err != nil {
		return isa.Counts{}, nil, err
	}
	scfg := sampling.Config{Schedule: sched}
	// A restore replays no instructions: it would desynchronize a teeing
	// protocol checker mid-stream, and it skips each window's detailed
	// warm-up, whose commits the flight recorder samples. Sanitized and
	// recorded cells sample cold, so the checker sees the complete trace
	// and the timeline every sample.
	if o.checkpoints != nil && !o.Sanitize && tl == nil {
		scfg.Store = o.checkpoints
		scfg.Key = sampling.KeySpec{
			Benchmark:    p.Name,
			Seed:         seed,
			Instructions: p.Instructions,
			Scheme:       c.Scheme.String(),
			Variant:      c.variant(),
		}
	}
	if tl != nil {
		scfg.OnSegment = func(s sampling.Segment) { addSegmentSlice(tl, s) }
	}
	res, err := sampling.Run(ctx, p, m, cc, seed, scfg)
	if err != nil {
		return isa.Counts{}, nil, err
	}
	return res.WarmCounts, res.Est, nil
}

// addSegmentSlice records one mode segment of a cell's run as a
// sim/fastforward or sim/detailed timeline slice carrying its mode and the
// instructions the core consumed in it.
func addSegmentSlice(tl *telemetry.Timeline, s sampling.Segment) {
	name, mode := "sim/fastforward", uint64(0)
	if s.Detailed {
		name, mode = "sim/detailed", 1
	}
	tl.AddSlice(name, s.StartCycle, s.EndCycle-s.StartCycle, map[string]uint64{
		"mode":  mode,
		"insts": s.EndInst - s.StartInst,
	})
}

// String names the cell as benchmark/scheme, followed by /variant for a
// machine other than the paper's default.
func (c Cell) String() string {
	name := c.Profile.Name + "/" + c.Scheme.String()
	if v := c.variant(); v != "" {
		name += "/" + v
	}
	return name
}

// variant renders the cell's machine configuration for checkpoint
// addressing: "" for the paper's default machine, otherwise every
// setting, so no cell restores another configuration's state.
func (c Cell) variant() string {
	defMCQ := cpu.DefaultConfig().MCQSize
	mcq, assoc := c.MCQSize, c.InitialHBTAssoc
	if mcq == 0 {
		mcq = defMCQ
	}
	if assoc == 0 {
		assoc = 1
	}
	if !c.DisableL1B && !c.DisableCompression && !c.DisableBWB && !c.DisableForwarding &&
		mcq == defMCQ && assoc == 1 {
		return ""
	}
	return fmt.Sprintf("l1b=%t,comp=%t,bwb=%t,fwd=%t,mcq=%d,assoc=%d",
		!c.DisableL1B, !c.DisableCompression, !c.DisableBWB, !c.DisableForwarding, mcq, assoc)
}

// summarize collects a finished run; warm is the machine's counts at the
// start of the measured region.
func summarize(m *core.Machine, cc *cpu.Core, warm isa.Counts) Summary {
	counts := m.Counts()
	counts.Total -= warm.Total
	counts.SignedLoads -= warm.SignedLoads
	counts.UnsignedLoads -= warm.UnsignedLoads
	counts.SignedStores -= warm.SignedStores
	counts.UnsignedStore -= warm.UnsignedStore
	for i := range counts.ByOp {
		counts.ByOp[i] -= warm.ByOp[i]
	}
	return Summary{
		CPU:        cc.Finalize(),
		Counts:     counts,
		Heap:       m.Heap.Stats(),
		Exceptions: m.Exceptions(),
		HBTAssoc:   m.Table().Assoc(),
		Resizes:    len(m.OS.Resizes()),
	}
}

// sanitizer wires the machine's sink: straight to the timing core, or teed
// through a fresh protocol checker when Options.Sanitize is set.
func (o Options) sanitizer(scheme instrument.Scheme, m *core.Machine, c *cpu.Core) *tracecheck.Checker {
	if !o.Sanitize {
		m.SetSink(c)
		return nil
	}
	chk := tracecheck.New(scheme)
	chk.SetJob(o.JobID)
	m.SetSink(isa.MultiSink{c, chk})
	return chk
}

// sanitizeErr finishes a checker (nil is fine) and decorates its verdict
// with the job identity.
func sanitizeErr(chk *tracecheck.Checker, benchmark string, scheme instrument.Scheme) error {
	if chk == nil {
		return nil
	}
	chk.Finish()
	if err := chk.Err(); err != nil {
		return fmt.Errorf("%s under %v: %w", benchmark, scheme, err)
	}
	return nil
}
