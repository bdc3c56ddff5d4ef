// Package workload defines the benchmark programs the reproduction runs:
// synthetic equivalents of the 16 SPEC CPU 2006 workloads the paper
// evaluates (§VIII), the six real-world programs of Table III, and the
// microbenchmarks (§VI). Each SPEC profile is parameterized by published
// per-benchmark characteristics — the Table II memory-usage profile, the
// Fig 16 signed-access fraction, memory intensity and footprint, call
// frequency, and branch behaviour — so that per-benchmark results keep the
// paper's shape even though the instruction streams are synthetic.
package workload

import (
	"context"
	"fmt"

	"aos/internal/core"
)

// Profile describes one benchmark.
type Profile struct {
	Name string

	// Full-run memory profile, as the paper's Table II/III reports it
	// (Valgrind --trace-malloc over the complete execution).
	TableAllocs  uint64
	TableFrees   uint64
	TableMaxLive uint64
	// TableNote flags rows whose paper numbers need commentary.
	TableNote string

	// --- scaled timing-run parameters ---

	// Instructions is the program-instruction budget for timing runs
	// (instrumentation added by a scheme is not counted, matching §VIII).
	Instructions uint64

	// Instruction mix (fractions of the program instruction stream).
	LoadFrac, StoreFrac float64
	BranchFrac          float64
	FPFrac, MulFrac     float64

	// HeapFrac is the fraction of data accesses that go through heap
	// pointers (signed under AOS) — the Fig 16 driver.
	HeapFrac float64
	// PointerValueFrac is the fraction of heap accesses whose value is
	// itself a pointer (drives Watchdog shadow traffic and PA on-load
	// authentication).
	PointerValueFrac float64
	// ChaseFrac is the fraction of accesses whose address depends on a
	// previous load (pointer chasing, limits memory-level parallelism).
	ChaseFrac float64

	// CallsPer1K is function call+return pairs per 1000 instructions
	// (the PA return-address-signing overhead driver; hmmer and omnetpp
	// are the paper's outliers).
	CallsPer1K float64

	// Heap shape for the scaled run.
	LiveChunks    int       // steady-state live allocations
	ChunkSize     [2]uint64 // min and max allocation size
	HotChunks     int       // chunks receiving most accesses (locality)
	HotFrac       float64   // fraction of heap accesses to hot chunks
	AllocPer1K    float64   // malloc/free pairs per 1000 instructions
	GlobalBytes   uint64    // unsigned global/stack working set
	CodeFootprint uint64    // synthetic static code size

	// Branch behaviour.
	BranchSites   int
	BranchEntropy float64 // 0 = fully biased/predictable, 1 = coin flips

	// ChainFrac is the fraction of compute operations that extend a serial
	// dependency chain (limits ILP; default 0.12).
	ChainFrac float64

	// Access-pattern shape: heap accesses occur in strided bursts (loop
	// bodies walking arrays/structs), which is what gives real programs
	// their cache and BWB locality. BurstLen is the mean run length;
	// Stride the byte step between accesses in a run. Zero values default
	// to 16 and 8.
	BurstLen int
	Stride   uint64
}

// Clone returns an independent copy of the profile, safe to mutate (e.g.
// an Instructions override) while other goroutines run the original.
// Profile holds only value-typed fields (ChunkSize is an array, not a
// slice), so a shallow copy IS a deep copy; TestProfileCloneIsDeep guards
// that invariant with reflection so a future slice/map/pointer field
// cannot silently reintroduce sharing between concurrent runs.
func (p *Profile) Clone() *Profile {
	q := *p
	return &q
}

// Validate sanity-checks a profile.
func (p *Profile) Validate() error {
	frac := p.LoadFrac + p.StoreFrac + p.BranchFrac + p.FPFrac + p.MulFrac
	if frac > 1.0 {
		return fmt.Errorf("workload %s: op fractions sum to %.2f > 1", p.Name, frac)
	}
	if p.LiveChunks <= 0 || p.Instructions == 0 {
		return fmt.Errorf("workload %s: empty shape", p.Name)
	}
	if p.ChunkSize[0] == 0 || p.ChunkSize[1] < p.ChunkSize[0] {
		return fmt.Errorf("workload %s: bad chunk sizes %v", p.Name, p.ChunkSize)
	}
	return nil
}

// Run executes the profile's scaled synthetic program on m from setup to
// the end of its budget, emitting about p.Instructions program
// instructions (instrumentation excluded) with no warmup split. The stream
// is deterministic for a given seed. Run is the whole-stream helper for
// tests and trace recording; simulation cells (internal/experiments.Cell)
// drive a Runner themselves to split warmup from measurement.
//
// Run never mutates the profile, so many goroutines may run the same
// *Profile concurrently (each run's state — RNG, chunk list, branch
// biases — is local to its Runner).
func (p *Profile) Run(m *core.Machine, seed int64) error {
	// With batched emission the sink must not be left holding back
	// buffered instructions on any exit path (the caller finalizes the
	// timing core or a protocol checker right after we return).
	defer m.Flush()
	r, err := NewRunner(p, m, seed)
	if err != nil {
		return err
	}
	return r.RunTo(context.Background(), p.Instructions, p.Instructions)
}

// ctxCheckEvery is how many program instructions may elapse between
// cancellation checks in Runner.RunTo: frequent enough that a timed-out
// or client-abandoned job stops within microseconds of real time, rare
// enough to stay invisible in the emission hot loop.
const ctxCheckEvery = 8192

func gap(per1K float64) uint64 {
	if per1K <= 0 {
		return 0
	}
	return uint64(1000 / per1K)
}

func depOf(rng *generator, chase, chain float64) core.Dep {
	r := rng.Float64()
	switch {
	case r < chase:
		return core.DepChase
	case r < chase+chain:
		return core.DepChain
	default:
		return core.DepFree
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
