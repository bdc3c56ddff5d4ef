package workload

import (
	"context"
	"fmt"

	"aos/internal/core"
	"aos/internal/kernel"
)

// Runner is the resumable form of a profile run: the synthetic program's
// loop state, so a driver can stop at any instruction boundary — a warmup
// split, a SMARTS segment — checkpoint (State), fast-forward, and resume
// (NewRunnerFromState, or Restore into a runner it already has) without
// replaying the prefix. Stopping and resuming never changes the
// instruction stream: a run sliced into any number of RunTo calls emits
// exactly the stream of one call.
type Runner struct {
	p *Profile
	m *core.Machine

	// Derived, draw-free parameters (recomputed from the profile on every
	// construction path; never checkpointed).
	chainFrac  float64
	memFrac    float64
	storeShare float64
	burstLen   int
	stride     uint64
	callGap    uint64
	allocGap   uint64

	// runnerState is the loop state a checkpoint captures (see
	// RunnerState).
	runnerState
}

// runnerState is the program's loop state, the one field list that
// checkpoints capture: State copies it whole and clones its slices.
type runnerState struct {
	// rng is the draw stream (see rng.go), a plain value that an
	// assignment copies.
	rng generator

	chunks []core.Ptr
	bias   []float64

	// Strided-burst cursor.
	cur       core.Ptr
	curOff    uint64
	remaining int

	produced     uint64
	sinceCall    uint64
	sinceAlloc   uint64
	nextCtxCheck uint64
}

// clone returns a copy of s that shares no storage with it.
func (s runnerState) clone() runnerState {
	s.chunks = append([]core.Ptr(nil), s.chunks...)
	s.bias = append([]float64(nil), s.bias...)
	return s
}

// NewRunner validates the profile and performs the program's setup phase on
// m — steady-state heap construction, prefaulting, branch-bias derivation
// (the setup emits instructions).
// The returned runner is positioned at produced=0, ready for RunTo.
func NewRunner(p *Profile, m *core.Machine, seed int64) (*Runner, error) {
	r, err := newRunner(p, m)
	if err != nil {
		return nil, err
	}
	r.rng = newGenerator(seed)

	// Warm-up: build the steady-state heap.
	r.chunks = make([]core.Ptr, 0, p.LiveChunks)
	for i := 0; i < p.LiveChunks; i++ {
		if err := r.allocChunk(); err != nil {
			return nil, err
		}
	}

	// Prefault: when the data footprint is cache-scale, touch it once at
	// line granularity (heap and globals) so the measurement window sees
	// capacity and conflict behaviour instead of compulsory misses — the
	// moral equivalent of measuring a window of the paper's 3B-instruction
	// runs. Genuinely DRAM-bound workloads (mcf-class footprints) skip it.
	var footprint uint64
	for _, c := range r.chunks {
		footprint += c.Size
	}
	if footprint <= 16<<20 {
		for _, c := range r.chunks {
			for off := uint64(0); off+8 <= c.Size; off += 64 {
				if err := m.Load(c, off, core.AccessOpts{}); err != nil {
					return nil, fmt.Errorf("workload %s: prefault: %w", p.Name, err)
				}
			}
		}
		for off := uint64(0); off < p.GlobalBytes; off += 64 {
			m.RawLoad(0x1000_0000+off, core.DepFree)
		}
		if m.Scheme.HasWatchdogChecks() {
			// Watchdog's shadow metadata (24B per pointer-holding data
			// line) is part of the program's working set; prefault it.
			shadow := uint64(float64(footprint*24/64) * p.PointerValueFrac)
			for off := uint64(0); off < shadow; off += 64 {
				m.RawLoad(kernel.ShadowBase+off, core.DepFree)
			}
		}
	}

	// Branch pattern state: per-site bias.
	r.bias = make([]float64, p.BranchSites)
	for i := range r.bias {
		if r.rng.Float64() < 0.5 {
			r.bias[i] = p.BranchEntropy / 2
		} else {
			r.bias[i] = 1 - p.BranchEntropy/2
		}
	}

	r.nextCtxCheck = ctxCheckEvery
	return r, nil
}

// newRunner validates the profile and returns a runner on m with its
// draw-free parameters derived and no loop state.
func newRunner(p *Profile, m *core.Machine) (*Runner, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	r := &Runner{p: p, m: m}
	r.deriveParams()
	return r, nil
}

// deriveParams computes the draw-free parameters from the profile.
func (r *Runner) deriveParams() {
	p := r.p
	r.chainFrac = p.ChainFrac
	if r.chainFrac == 0 {
		r.chainFrac = 0.12
	}
	r.memFrac = p.LoadFrac + p.StoreFrac
	r.storeShare = 0.0
	if r.memFrac > 0 {
		r.storeShare = p.StoreFrac / r.memFrac
	}
	r.burstLen = p.BurstLen
	if r.burstLen <= 0 {
		r.burstLen = 16
	}
	r.stride = p.Stride
	if r.stride == 0 {
		r.stride = 8
	}
	r.callGap = gap(p.CallsPer1K)
	r.allocGap = gap(p.AllocPer1K)
}

// allocChunk draws a size and allocates one steady-state chunk.
func (r *Runner) allocChunk() error {
	p := r.p
	size := p.ChunkSize[0]
	if p.ChunkSize[1] > p.ChunkSize[0] {
		size += uint64(r.rng.Int63n(int64(p.ChunkSize[1] - p.ChunkSize[0] + 1)))
	}
	ptr, err := r.m.Malloc(size)
	if err != nil {
		return err
	}
	r.chunks = append(r.chunks, ptr)
	return nil
}

// Produced reports program instructions produced so far (an intent count:
// instrumentation a scheme adds is not counted).
func (r *Runner) Produced() uint64 { return r.produced }

// pickChunk selects the next burst's target chunk.
func (r *Runner) pickChunk() core.Ptr {
	p := r.p
	if p.HotChunks > 0 && r.rng.Float64() < p.HotFrac {
		return r.chunks[r.rng.Intn(minInt(p.HotChunks, len(r.chunks)))]
	}
	return r.chunks[r.rng.Intn(len(r.chunks))]
}

// nextHeapTarget advances the strided-burst cursor.
func (r *Runner) nextHeapTarget() (core.Ptr, uint64) {
	if r.remaining <= 0 || r.cur.Raw == 0 {
		r.cur = r.pickChunk()
		span := r.cur.Size &^ 7
		if span == 0 {
			span = 8
		}
		r.curOff = uint64(r.rng.Int63n(int64(span))) &^ 7
		r.remaining = 1 + r.rng.Intn(2*r.burstLen)
	}
	r.remaining--
	off := r.curOff
	r.curOff += r.stride
	if r.curOff+8 > r.cur.Size {
		r.curOff = 0
	}
	return r.cur, off
}

// RunTo produces program instructions until produced >= until, polling
// ctx every ctxCheckEvery instructions (the cadence persists across calls)
// and returning its error, wrapped with the profile and progress, once it
// is done. A run aborted this way leaves the machine consistent but
// unfinished; callers must discard, not report, its statistics. total is
// the overall run target, used for progress reporting and error messages;
// the closing progress callback fires only on the call that reaches it.
func (r *Runner) RunTo(ctx context.Context, until, total uint64) error {
	p, m := r.p, r.m
	progress := progressFrom(ctx)
	for r.produced < until {
		if r.produced >= r.nextCtxCheck {
			r.nextCtxCheck = r.produced + ctxCheckEvery
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("workload %s: canceled after %d of %d instructions: %w",
					p.Name, r.produced, total, err)
			}
			if progress != nil {
				progress(r.produced, total)
			}
		}
		rr := r.rng.Float64()
		switch {
		case rr < r.memFrac:
			// A data access.
			store := r.rng.Float64() < r.storeShare
			opts := core.AccessOpts{}
			if r.rng.Float64() < p.ChaseFrac {
				opts.Dep = core.DepChase
			}
			if r.rng.Float64() < p.HeapFrac {
				c, off := r.nextHeapTarget()
				// Pointer-valued data lives at fixed locations (struct
				// layout), so pointer-ness is a deterministic property of
				// the line: Watchdog's shadow footprint then scales with
				// pointer density rather than covering the whole heap.
				line := (c.VA() + off) >> 6
				opts.Pointer = float64(line*2654435761%1000)/1000 < p.PointerValueFrac
				var err error
				if store {
					err = m.Store(c, off, opts)
				} else {
					err = m.Load(c, off, opts)
				}
				if err != nil {
					return fmt.Errorf("workload %s: unexpected violation: %w", p.Name, err)
				}
			} else {
				addr := 0x1000_0000 + uint64(r.rng.Int63n(int64(maxU64(p.GlobalBytes, 64))))&^7
				if store {
					m.RawStore(addr, opts.Dep)
				} else {
					m.RawLoad(addr, opts.Dep)
				}
			}
			r.produced++
		case rr < r.memFrac+p.BranchFrac:
			site := r.rng.Intn(p.BranchSites)
			taken := r.rng.Float64() < r.bias[site]
			m.Branch(uint32(site), taken)
			r.produced++
		case rr < r.memFrac+p.BranchFrac+p.FPFrac:
			m.ComputeFP(1, depOf(&r.rng, p.ChaseFrac, r.chainFrac))
			r.produced++
		case rr < r.memFrac+p.BranchFrac+p.FPFrac+p.MulFrac:
			m.ComputeMul(1, depOf(&r.rng, p.ChaseFrac, r.chainFrac))
			r.produced++
		default:
			m.Compute(1, depOf(&r.rng, p.ChaseFrac, r.chainFrac))
			r.produced++
		}

		r.sinceCall++
		if r.callGap > 0 && r.sinceCall >= r.callGap {
			r.sinceCall = 0
			m.Call()
			m.Compute(2, core.DepFree)
			m.Ret()
			r.produced += 4
		}
		r.sinceAlloc++
		if r.allocGap > 0 && r.sinceAlloc >= r.allocGap {
			r.sinceAlloc = 0
			// Steady state: free a random victim, allocate a replacement.
			vi := r.rng.Intn(len(r.chunks))
			victim := r.chunks[vi]
			r.chunks[vi] = r.chunks[len(r.chunks)-1]
			r.chunks = r.chunks[:len(r.chunks)-1]
			if victim.Raw == r.cur.Raw {
				r.remaining = 0 // current burst target freed; repick
			}
			if err := m.Free(victim); err != nil {
				return fmt.Errorf("workload %s: free failed: %w", p.Name, err)
			}
			if err := r.allocChunk(); err != nil {
				return err
			}
			r.produced += 2 // the call/free intents
		}
	}
	if until >= total && progress != nil {
		progress(r.produced, total)
	}
	return nil
}

// RunnerState is a deep checkpoint of a runner's loop position: the
// generator, the live-chunk list, the burst cursor, and the event-gap
// phases. Pair it with the machine and timing-core snapshots taken at the
// same instruction boundary to capture a whole simulation.
type RunnerState struct {
	runnerState
	profile string
}

// Produced reports the checkpoint's instruction position.
func (s *RunnerState) Produced() uint64 { return s.produced }

// State deep-copies the runner's loop state. The snapshot is immutable and
// reusable for any number of restores.
func (r *Runner) State() *RunnerState {
	return &RunnerState{runnerState: r.runnerState.clone(), profile: r.p.Name}
}

// NewRunnerFromState builds a runner positioned at a checkpoint, skipping
// the setup phase entirely: it builds a runner, then Restores it.
func NewRunnerFromState(p *Profile, m *core.Machine, s *RunnerState) (*Runner, error) {
	r, err := newRunner(p, m)
	if err != nil {
		return nil, err
	}
	if err := r.Restore(s); err != nil {
		return nil, err
	}
	return r, nil
}

// Restore positions the runner at a checkpoint. It copies the state's
// chunk list and branch biases into the runner's own slices and the rest,
// the generator included, by assignment, so restoring into a runner whose
// buffers can hold the state allocates nothing. No instructions are
// emitted: the machine must already hold the matching state, restored from
// the checkpoint taken at the same boundary. The state stays valid for
// further restores.
func (r *Runner) Restore(s *RunnerState) error {
	if r.p.Name != s.profile {
		return fmt.Errorf("workload: runner state is for profile %q, not %q", s.profile, r.p.Name)
	}
	own := r.runnerState
	r.runnerState = s.runnerState
	r.chunks = append(own.chunks[:0], s.chunks...)
	r.bias = append(own.bias[:0], s.bias...)
	return nil
}
