// Package aos is a from-scratch reproduction of "Hardware-based Always-On
// Heap Memory Safety" (Kim, Lee, Kim — MICRO 2020): the AOS bounds-checking
// mechanism built on Arm pointer-authentication primitives, together with
// every substrate its evaluation depends on — a QARMA-64 cipher, a
// glibc-style heap allocator, the hashed bounds table with gradual
// resizing, the memory check unit (MCQ + BWB), an out-of-order timing
// model with the paper's Table IV platform, and the Watchdog and PA
// baselines.
//
// The package is a facade over the internal packages. Typical use:
//
//	sys, _ := aos.NewSystem(aos.Options{Scheme: aos.AOS})
//	p, _ := sys.Malloc(64)
//	err := sys.Load(p, 128, aos.AccessOpts{}) // out of bounds -> detected
//
// or run a full benchmark profile through the timing simulator:
//
//	res, _ := aos.Run(aos.SPECWorkloads()[0], aos.Options{Scheme: aos.AOS})
//	fmt.Println(res.Cycles, res.IPC())
package aos

import (
	"context"
	"fmt"

	"aos/internal/core"
	"aos/internal/cpu"
	"aos/internal/experiments"
	"aos/internal/heap"
	"aos/internal/instrument"
	"aos/internal/isa"
	"aos/internal/kernel"
	"aos/internal/telemetry"
	"aos/internal/tracecheck"
	"aos/internal/workload"
)

// Scheme selects the protection mechanism (§VIII system configurations).
type Scheme = instrument.Scheme

// The evaluated schemes.
const (
	// Baseline has no security features.
	Baseline = instrument.Baseline
	// Watchdog is the hardware bounds+UAF-checking baseline.
	Watchdog = instrument.Watchdog
	// PA is PA-based code- and data-pointer integrity.
	PA = instrument.PA
	// AOS is the paper's mechanism.
	AOS = instrument.AOS
	// PAAOS is AOS integrated with PA pointer integrity.
	PAAOS = instrument.PAAOS
	// MTE is ARM-style 4-bit lock-and-key memory tagging.
	MTE = instrument.MTE
	// HardenedAlloc is the software hardened-allocator mode (quarantine,
	// canaries, poison-on-free).
	HardenedAlloc = instrument.HardenedAlloc
)

// Schemes returns the paper's five evaluated schemes in paper order.
func Schemes() []Scheme { return instrument.Schemes() }

// AllSchemes returns every registered scheme — the paper's five plus
// the comparison backends — in registry order.
func AllSchemes() []Scheme { return instrument.AllSchemes() }

// ParseScheme resolves a scheme name (canonical spelling, registered
// alias, or any case variant thereof).
func ParseScheme(name string) (Scheme, error) { return instrument.ParseScheme(name) }

// Ptr is a program pointer value (signed under AOS).
type Ptr = core.Ptr

// AccessOpts qualifies a memory access.
type AccessOpts = core.AccessOpts

// Dependency shapes for synthetic instruction streams.
const (
	// DepFree marks an operand with no interesting producer.
	DepFree = core.DepFree
	// DepChain marks a dependency on the latest ALU result.
	DepChain = core.DepChain
	// DepChase marks a dependency on the latest loaded value.
	DepChase = core.DepChase
)

// Exception is a recorded memory-safety violation.
type Exception = kernel.Exception

// Violation kinds.
const (
	// ExcBoundsCheck is an out-of-bounds or use-after-free access.
	ExcBoundsCheck = kernel.ExcBoundsCheck
	// ExcBoundsClear is a double free or invalid free.
	ExcBoundsClear = kernel.ExcBoundsClear
	// ExcPAAuth is a pointer-authentication failure.
	ExcPAAuth = kernel.ExcPAAuth
)

// Workload is a benchmark profile.
type Workload = workload.Profile

// SPECWorkloads returns the 16 SPEC CPU 2006 profiles (§VIII).
func SPECWorkloads() []*Workload { return workload.SPEC() }

// RealWorldWorkloads returns the Table III profiles.
func RealWorldWorkloads() []*Workload { return workload.RealWorld() }

// WorkloadByName finds a profile by benchmark name.
func WorkloadByName(name string) (*Workload, bool) { return workload.ByName(name) }

// Options configures a System or a Run.
type Options struct {
	// Scheme is the protection configuration (default Baseline).
	Scheme Scheme
	// Seed makes synthetic workloads deterministic (default 1).
	Seed int64
	// Instructions overrides the profile's program-instruction budget
	// (0 keeps the profile default).
	Instructions uint64

	// AOS optimization ablations (§V-F, Fig 15). All optimizations are on
	// by default, matching the paper's headline configuration.
	DisableL1B         bool
	DisableCompression bool
	DisableBWB         bool
	DisableForwarding  bool

	// InitialHBTAssoc overrides the initial bounds-table associativity
	// (default 1, per Table IV).
	InitialHBTAssoc int

	// NoWarmup disables the default warmup-then-measure methodology in
	// Run (half the instruction budget warms caches, predictor and BWB
	// before statistics start — mirroring the paper's measurement of a
	// window within 3B-instruction executions).
	NoWarmup bool

	// Sanitize tees the instruction stream through the tracecheck protocol
	// verifier; Run fails with a *tracecheck.Error when the functional
	// machine emits a stream violating the scheme's instrumentation
	// contract (internal/tracecheck documents the rules).
	Sanitize bool

	// TelemetryInterval, when nonzero, attaches the flight recorder: the
	// timing core samples every registered probe each TelemetryInterval
	// commit cycles into Result.Timeline (telemetry.DefaultInterval is
	// the conventional cadence). Telemetry is passive — results are
	// byte-identical with it on or off (the sampled-vs-unsampled
	// equivalence test pins this) — and costs nothing when disabled.
	TelemetryInterval uint64
}

// System couples a functional AOS machine with a timing core. Every
// operation performed on the machine streams into the timing model.
type System struct {
	machine  *core.Machine
	core     *cpu.Core
	checker  *tracecheck.Checker
	extras   []isa.Sink
	timeline *telemetry.Timeline
}

// NewSystem builds a machine+core pair for the given options. The bare
// machine has no workload profile, so it keeps the core's default code
// footprint.
func NewSystem(opts Options) (*System, error) {
	m, c, err := opts.cell(nil).Build()
	if err != nil {
		return nil, err
	}
	s := &System{machine: m, core: c}
	if opts.Sanitize {
		s.checker = tracecheck.New(opts.Scheme)
		s.TeeSink(s.checker)
	}
	if opts.TelemetryInterval > 0 {
		s.EnableTelemetry(opts.TelemetryInterval)
	}
	return s, nil
}

// EnableTelemetry attaches the flight recorder at the given sampling
// interval (in commit cycles; 0 means telemetry.DefaultInterval) and
// returns the timeline it records into. The timing core and the
// functional machine register their probes in the timeline's shared
// registry. Enable before emitting instructions; calling it twice
// returns the existing timeline.
func (s *System) EnableTelemetry(interval uint64) *telemetry.Timeline {
	if s.timeline != nil {
		return s.timeline
	}
	tl := telemetry.NewTimeline(telemetry.NewRegistry(), interval)
	s.core.AttachTelemetry(tl)
	s.machine.AttachTelemetry(tl)
	s.timeline = tl
	return tl
}

// Timeline returns the recorded telemetry timeline (nil when
// telemetry was never enabled).
func (s *System) Timeline() *telemetry.Timeline { return s.timeline }

// Machine-facing operations (see internal/core for semantics).

// Malloc allocates heap memory through the instrumented allocator; under
// AOS the returned pointer is signed and its bounds stored in the HBT.
func (s *System) Malloc(size uint64) (Ptr, error) { return s.machine.Malloc(size) }

// Calloc allocates zeroed memory.
func (s *System) Calloc(n, size uint64) (Ptr, error) { return s.machine.Calloc(n, size) }

// Free releases an allocation with the scheme's instrumentation; under AOS
// a double free or invalid free is detected here (bndclr failure).
func (s *System) Free(p Ptr) error { return s.machine.Free(p) }

// Load performs a checked load through p at the given byte offset.
func (s *System) Load(p Ptr, off uint64, o AccessOpts) error { return s.machine.Load(p, off, o) }

// Store performs a checked store.
func (s *System) Store(p Ptr, off uint64, o AccessOpts) error { return s.machine.Store(p, off, o) }

// LoadU64 is Load plus the actual data read (suppressed on violations).
func (s *System) LoadU64(p Ptr, off uint64) (uint64, error) { return s.machine.LoadU64(p, off) }

// StoreU64 is Store plus the actual data write (suppressed on violations).
func (s *System) StoreU64(p Ptr, off uint64, v uint64) error { return s.machine.StoreU64(p, off, v) }

// PointerArith derives a new pointer at a byte delta; PAC and AHC ride
// along for free (the paper's key propagation property).
func (s *System) PointerArith(p Ptr, delta int64) Ptr { return s.machine.PointerArith(p, delta) }

// Compute emits n ALU operations.
func (s *System) Compute(n int, dep core.Dep) { s.machine.Compute(n, dep) }

// Branch emits a conditional branch outcome.
func (s *System) Branch(site uint32, taken bool) { s.machine.Branch(site, taken) }

// Call and Ret emit an instrumented call/return pair's halves.
func (s *System) Call() { s.machine.Call() }

// Ret emits the return half.
func (s *System) Ret() { s.machine.Ret() }

// Exceptions returns every detected memory-safety violation so far.
func (s *System) Exceptions() []Exception { return s.machine.Exceptions() }

// Machine exposes the functional machine for advanced scenarios (attack
// construction, direct heap inspection).
func (s *System) Machine() *core.Machine { return s.machine }

// Core exposes the timing model (observers, advanced inspection).
func (s *System) Core() *cpu.Core { return s.core }

// TeeSink duplicates the instruction stream to an additional sink (e.g. a
// trace recorder or protocol checker) alongside the timing core. Calling
// it again adds further sinks; earlier tees keep receiving the stream.
func (s *System) TeeSink(extra isa.Sink) {
	s.extras = append(s.extras, extra)
	s.machine.SetSink(append(isa.MultiSink{s.core}, s.extras...))
}

// Sanitizer returns the protocol checker when Options.Sanitize was set,
// else nil. SanitizeErr is the usual entry point; the checker itself
// exposes the structured violations.
func (s *System) Sanitizer() *tracecheck.Checker { return s.checker }

// SanitizeErr finishes the protocol checker and returns its verdict: nil
// without Options.Sanitize or on a clean stream, a *tracecheck.Error
// otherwise. Call after the run's final operation.
func (s *System) SanitizeErr() error {
	if s.checker == nil {
		return nil
	}
	s.checker.Finish()
	return s.checker.Err()
}

// Result summarizes a finished run.
type Result struct {
	cpu.Result
	// Counts is the dynamic instruction breakdown (Fig 16 classes). Run
	// reports the measured region, as it does for Insts; Finalize reports
	// everything the system executed.
	Counts isa.Counts
	// Heap is the allocator's trace-malloc statistics (Table II classes).
	Heap heap.Stats
	// Exceptions are the detected violations.
	Exceptions []Exception
	// HBTAssoc is the final bounds-table associativity.
	HBTAssoc int
	// HBTResizes counts OS-handled table resizes (§IX-A.1).
	HBTResizes int
	// Timeline is the recorded telemetry (nil unless
	// Options.TelemetryInterval was set or EnableTelemetry called).
	// It is operational metadata: never part of canonical experiment
	// output or cache-addressed result bytes.
	Timeline *telemetry.Timeline
}

// Finalize stops the system and returns its results. Any batched
// instructions still buffered in the machine are flushed first.
func (s *System) Finalize() Result {
	s.machine.Flush()
	return Result{
		Result:     s.core.Finalize(),
		Counts:     s.machine.Counts(),
		Heap:       s.machine.Heap.Stats(),
		Exceptions: s.machine.Exceptions(),
		HBTAssoc:   s.machine.Table().Assoc(),
		HBTResizes: len(s.machine.OS.Resizes()),
		Timeline:   s.timeline,
	}
}

// cell is w's simulation cell under opts (w may be nil for a bare
// machine).
func (opts Options) cell(w *Workload) experiments.Cell {
	return experiments.Cell{
		Profile:            w,
		Scheme:             opts.Scheme,
		Seed:               opts.Seed,
		Instructions:       opts.Instructions,
		DisableL1B:         opts.DisableL1B,
		DisableCompression: opts.DisableCompression,
		DisableBWB:         opts.DisableBWB,
		DisableForwarding:  opts.DisableForwarding,
		InitialHBTAssoc:    opts.InitialHBTAssoc,
		NoWarmup:           opts.NoWarmup,
	}
}

// Run executes one workload profile under the given options and returns
// the timing result. It runs the same simulation cell as the experiment
// matrix (internal/experiments.Cell), so a Run and the matrix agree on
// every number for the same profile, scheme, budget and seed.
func Run(w *Workload, opts Options) (Result, error) {
	return RunContext(context.Background(), w, opts)
}

// RunContext is Run with cooperative cancellation: the workload emission
// loop polls ctx mid-run, so a deadline or client abandon aborts the
// simulation within a few thousand emitted instructions. An aborted run
// returns ctx's error (wrapped with the workload identity); its partial
// statistics are discarded.
func RunContext(ctx context.Context, w *Workload, opts Options) (Result, error) {
	var tl *telemetry.Timeline
	sum, err := opts.cell(w).Run(experiments.Options{
		Context:           ctx,
		Sanitize:          opts.Sanitize,
		TelemetryInterval: opts.TelemetryInterval,
		OnTimeline:        func(_ string, _ Scheme, t *telemetry.Timeline) { tl = t },
	})
	if err != nil {
		return Result{}, fmt.Errorf("aos: workload %s under %v: %w", w.Name, opts.Scheme, err)
	}
	return Result{
		Result:     sum.CPU,
		Counts:     sum.Counts,
		Heap:       sum.Heap,
		Exceptions: sum.Exceptions,
		HBTAssoc:   sum.HBTAssoc,
		HBTResizes: sum.Resizes,
		Timeline:   tl,
	}, nil
}
