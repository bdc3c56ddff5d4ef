package sampling

import (
	"context"
	"fmt"

	"aos/internal/core"
	"aos/internal/cpu"
	"aos/internal/isa"
	"aos/internal/workload"
)

// Segment is one contiguous stretch of the run consumed in a single mode,
// in commit-cycle and consumed-instruction coordinates. Fast-forward
// segments have StartCycle == EndCycle (the commit clock is frozen);
// instruction counts always advance.
type Segment struct {
	Detailed   bool
	StartCycle uint64
	EndCycle   uint64
	StartInst  uint64
	EndInst    uint64
}

// Config parameterizes a sampled run.
type Config struct {
	// Schedule must be normalized (Schedule.Normalize) against the
	// profile's instruction budget.
	Schedule Schedule
	// Store, when non-nil, enables checkpoint reuse at every boundary —
	// the end of each window's U segment and the end of the run: a
	// boundary's checkpoint is restored when the store holds it, and
	// stored after the cell fast-forwards to the window's start and runs
	// U otherwise. A fully warm store turns the run into its measurement
	// windows plus Windows+1 restores — this is where the
	// order-of-magnitude effective speedup comes from. A resumed window
	// runs no U segment, so attached telemetry records no samples for it.
	Store *Store
	// Key identifies the simulation cell for checkpoint addressing; the
	// Schedule and Boundary fields are filled in by Run.
	Key KeySpec
	// OnSegment, when non-nil, observes each mode segment as it closes
	// (for telemetry timelines). Instruction counts reset with the
	// measurement region: the first detailed segment restarts near zero.
	OnSegment func(Segment)
}

// Result is the outcome of a sampled run.
type Result struct {
	Est      *Estimate
	Segments []Segment
	// WarmCounts is the machine's architectural counts at the start of
	// the measurement region (window 0's start), for warmup subtraction —
	// read off the machine when the run fast-forwards there, and from
	// the checkpoint when it restores window 0's, so identical either
	// way.
	WarmCounts isa.Counts
	// Hits/Misses count this run's checkpoint lookups, one per boundary
	// (subset of the store's lifetime counters).
	Hits   int
	Misses int
}

// Run executes profile p on the (machine, timing core) pair in SMARTS
// U/W/F fashion and returns the timing estimate. The machine must already
// be wired to the core (directly or via a batch sink); m and c must be
// freshly constructed — Run positions them itself, restoring from the
// store when it can.
//
// The functional machine executes every instruction of a cold run
// regardless of mode, and a resumed run restores the states a cold run
// reached, so architectural outputs — heap stats, exception logs, counts —
// are exact; only cycle-domain quantities are estimated. The run is
// deterministic: a cold run and a checkpoint-resumed run produce
// byte-identical estimates and architectural state.
func Run(ctx context.Context, p *workload.Profile, m *core.Machine, c *cpu.Core, seed int64, cfg Config) (*Result, error) {
	sched := cfg.Schedule
	if err := sched.Validate(p.Instructions); err != nil {
		return nil, err
	}
	total := sched.Warmup + p.Instructions
	res := &Result{}

	var r *workload.Runner
	var err error

	var segStartC, segStartI uint64
	beginSeg := func() { segStartC, segStartI = c.LastCommit(), c.Insts() }
	endSeg := func(detailed bool) {
		seg := Segment{
			Detailed:   detailed,
			StartCycle: segStartC, EndCycle: c.LastCommit(),
			StartInst: segStartI, EndInst: c.Insts(),
		}
		if seg.EndInst > seg.StartInst {
			res.Segments = append(res.Segments, seg)
			if cfg.OnSegment != nil {
				cfg.OnSegment(seg)
			}
		}
	}

	windows := make([]WindowStat, 0, sched.Windows)
	// Boundary i < Windows is the end of window i's U segment, where its
	// measurement starts, and boundary Windows is the end of the run. The
	// cell reaches each one by restoring its checkpoint, or by
	// fast-forwarding to the window's start (the run's end), running U in
	// detail, and storing one.
	for i := 0; i <= sched.Windows; i++ {
		at := total
		if i < sched.Windows {
			at = sched.Start(i)
		}
		var key string
		var cp *Checkpoint
		if cfg.Store != nil {
			k := cfg.Key
			k.Schedule = sched
			k.Boundary = i
			key = k.Hash()
			var ok bool
			if cp, ok = cfg.Store.Get(key); ok {
				res.Hits++
			} else {
				res.Misses++
			}
		}
		if cp != nil {
			if r, err = cp.restore(p, m, c, r); err != nil {
				return nil, fmt.Errorf("sampling: boundary %d: %w", i, err)
			}
			if i == 0 {
				res.WarmCounts = cp.Warm
			}
			c.SetMode(cpu.ModeDetailed)
			beginSeg()
		} else {
			// Fast-forward (functionally warming) to the window's start.
			// The workload's setup phase also runs in FF mode: its
			// emissions only warm state the first window's U segment
			// re-settles anyway.
			c.SetMode(cpu.ModeFastForward)
			beginSeg()
			if r == nil {
				if r, err = workload.NewRunner(p, m, seed); err != nil {
					return nil, err
				}
			}
			if err := r.RunTo(ctx, at, total); err != nil {
				return nil, err
			}
			m.Flush()
			endSeg(false)
			if i == 0 {
				// Measurement region begins here; the reset lands in the
				// checkpoints below, so resumed runs inherit it.
				c.ResetStats()
				res.WarmCounts = m.Counts()
			}
			c.SetMode(cpu.ModeDetailed)
			beginSeg()
			if i < sched.Windows {
				// U: detailed warmup, which re-settles pipeline and queue
				// transients after the mode switch. Its only product is
				// the state W starts from, which the checkpoint keeps.
				if err := r.RunTo(ctx, at+sched.Detail, total); err != nil {
					return nil, err
				}
				m.Flush()
			}
			if cfg.Store != nil {
				cfg.Store.Put(key, &Checkpoint{
					Machine: m.Snapshot(), // flushes m first
					Core:    c.Snapshot(),
					Runner:  r.State(),
					Warm:    res.WarmCounts,
				})
			}
		}
		if i == sched.Windows {
			break
		}

		// W: the measurement window.
		wc, wi := c.LastCommit(), c.Insts()
		if err := r.RunTo(ctx, at+sched.Detail+sched.Window, total); err != nil {
			return nil, err
		}
		m.Flush()
		endSeg(true)
		windows = append(windows, WindowStat{Cycles: c.LastCommit() - wc, Insts: c.Insts() - wi})
	}

	// c.Insts() counts consumption since the measurement-region reset —
	// in both modes — so it is the exact detailed-equivalent denominator.
	est, err := Summarize(windows, c.Insts())
	if err != nil {
		return nil, err
	}
	res.Est = est
	return res, nil
}

// restore positions a cell at the checkpoint: the machine and core in
// place, and the runner in place too once the cell has one (r non-nil).
func (cp *Checkpoint) restore(p *workload.Profile, m *core.Machine, c *cpu.Core, r *workload.Runner) (*workload.Runner, error) {
	if err := m.Restore(cp.Machine); err != nil {
		return nil, err
	}
	if err := c.Restore(cp.Core); err != nil {
		return nil, err
	}
	if r == nil {
		return workload.NewRunnerFromState(p, m, cp.Runner)
	}
	return r, r.Restore(cp.Runner)
}
