package protoverify

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"aos/internal/attack"
	"aos/internal/instrument"
	"aos/internal/isa"
	"aos/internal/trace"
	"aos/internal/tracecheck"
)

// DefaultK is the default enumeration depth: six events cover every
// pairwise interleaving of the protocol phases (two full alloc/free
// lifecycles, or a lifecycle nested two calls deep with a violating
// access) while staying exhaustively enumerable in CI seconds.
const DefaultK = 6

// chunkPrograms bounds the verifier's memory: programs stream from the
// walk in chunks of this many, each checked and folded before the next is
// drawn. Small chunks also keep the GC near its goal: a chunk's end idles
// the workers, which lets a pending mark phase finish before they allocate
// megabytes of fresh machines that the GC would count live.
const chunkPrograms = 64

// Options parameterizes one verification run.
type Options struct {
	// K is the event-program depth bound (DefaultK when zero).
	K int
	// Mutate, when non-nil, corrupts the checker-facing stream — used to
	// seed defects and assert the contract catches them.
	Mutate MutateFunc
}

// Counterexample is one rejected program, shrunk to a local minimum.
type Counterexample struct {
	// Steps is the minimized failing program.
	Steps []attack.Step
	// OriginalLen is the step count of the first failing program found.
	OriginalLen int
	// Violations are the contract violations the minimized program
	// produces.
	Violations []tracecheck.Violation
	// Insts counts the instructions the checker judged (post-mutation);
	// WriteTrace records them.
	Insts uint64
}

// Report is one scheme's verification outcome.
type Report struct {
	// Scheme is the verified scheme.
	Scheme instrument.Scheme
	// K is the depth bound used.
	K int
	// Programs, Events and Insts count the enumerated maximal programs,
	// their events, and the dynamic instructions driven through the
	// contract.
	Programs uint64
	Events   uint64
	Insts    uint64
	// Coverage aggregates per-rule armed-predicate counts across the
	// enumeration (every rule ID, zeros included).
	Coverage map[string]uint64
	// Expected lists the rules the scheme's contract must exercise.
	Expected []string
	// Dead lists expected rules whose coverage stayed zero (only
	// meaningful on a counterexample-free run).
	Dead []string
	// CE is the minimized counterexample (nil when every program was
	// accepted).
	CE *Counterexample
}

// OK reports whether the scheme passed: no counterexample, no dead rules.
func (r *Report) OK() bool { return r.CE == nil && len(r.Dead) == 0 }

// Verify exhaustively enumerates every event program of exactly depth K
// for the scheme and checks each against the scheme's contract. Prefix
// programs need no separate runs: the checker is streaming, so a maximal
// program's run also witnesses every prefix up to its Finish obligations,
// and those are covered by the grammar's other extensions.
//
// Programs stream from the walk in chunks. Programs are independent (each
// runs on a fresh machine), so a chunk's programs execute on a worker
// pool; the results are folded back in enumeration order and the fold
// stops at the first rejected program, which makes the parallel run
// observably identical to a sequential one — same counterexample, same
// counts, same coverage.
func Verify(scheme instrument.Scheme, opts Options) (*Report, error) {
	if opts.K <= 0 {
		opts.K = DefaultK
	}
	k := opts.K
	rep := &Report{
		Scheme:   scheme,
		K:        k,
		Expected: tracecheck.ExpectedRules(scheme),
		Coverage: make(map[string]uint64, len(tracecheck.RuleIDs())),
	}
	for _, id := range tracecheck.RuleIDs() {
		rep.Coverage[id] = 0
	}

	chunk := make([]Event, 0, chunkPrograms*k)
	leaves := make([]leaf, chunkPrograms)
	var failing []Event
	var err error
	// fold checks the chunk and folds it in enumeration order; it reports
	// whether the walk goes on.
	fold := func() bool {
		n := len(chunk) / k
		runChunk(scheme, chunk, k, opts.Mutate, leaves[:n])
		for i := range leaves[:n] {
			l, prog := &leaves[i], chunk[i*k:(i+1)*k]
			if l.err != nil {
				err = fmt.Errorf("program %v: %w", prog, l.err)
				return false
			}
			rep.Programs++
			rep.Events += uint64(k)
			rep.Insts += l.insts
			for id, n := range l.coverage {
				rep.Coverage[id] += n
			}
			if l.failed {
				failing = prog
				return false
			}
		}
		chunk = chunk[:0]
		return true
	}
	enumerate(scheme.SignsDataPointers(), k, func(prog []Event) bool {
		chunk = append(chunk, prog...)
		return len(chunk) < cap(chunk) || fold()
	})
	if len(chunk) > 0 && failing == nil && err == nil {
		fold()
	}
	if err != nil {
		return nil, err
	}

	if failing != nil {
		if rep.CE, err = minimize(scheme, failing, opts.Mutate); err != nil {
			return nil, err
		}
		return rep, nil
	}
	for _, id := range rep.Expected {
		if rep.Coverage[id] == 0 {
			rep.Dead = append(rep.Dead, id)
		}
	}
	return rep, nil
}

// leaf is one program's verdict.
type leaf struct {
	failed   bool
	coverage map[string]uint64
	insts    uint64
	err      error
}

// runChunk checks the chunk's len(out) programs of k events each on a
// worker pool, each worker rendering into its own reused step buffer.
// Schemes verified concurrently share the scheduler, so the pool
// deliberately matches GOMAXPROCS rather than multiplying by it.
func runChunk(scheme instrument.Scheme, progs []Event, k int, mutate MutateFunc, out []leaf) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var steps []attack.Step
			for {
				idx := int(next.Add(1)) - 1
				if idx >= len(out) {
					return
				}
				steps = render(progs[idx*k:(idx+1)*k], steps[:0])
				chk, insts, err := check(scheme, steps, mutate, nil)
				out[idx] = leaf{err: err}
				if err == nil {
					out[idx] = leaf{failed: len(chk.Violations()) > 0, coverage: chk.Coverage(), insts: insts}
				}
			}
		}()
	}
	wg.Wait()
}

// check runs one step program on a fresh machine into a fresh checker with
// coverage on, and returns the checker and the machine's instruction
// count. The mutant, when set, wraps the checker; tee, when set, sees the
// same judged stream. The error is a harness failure, never a verdict:
// violations are the checker's.
func check(scheme instrument.Scheme, steps []attack.Step, mutate MutateFunc, tee isa.Sink) (*tracecheck.Checker, uint64, error) {
	chk := tracecheck.New(scheme)
	chk.EnableCoverage()
	var sink isa.Sink = chk
	if tee != nil {
		sink = isa.MultiSink{chk, tee}
	}
	if mutate != nil {
		sink = mutate(sink)
	}
	x, err := attack.Execute(scheme, steps, sink)
	if err != nil {
		return nil, 0, err
	}
	chk.Finish()
	return chk, x.Insts, nil
}

// enumerate calls visit with every maximal depth-k program of the grammar,
// in the declaration order of the event alphabet, until visit returns
// false. The slice is reused between calls.
func enumerate(signing bool, k int, visit func([]Event) bool) {
	buf := make([]Event, 0, k)
	var walk func(s absState) bool
	walk = func(s absState) bool {
		if len(buf) == k {
			return visit(buf)
		}
		for ev := Event(0); ev < numEvents; ev++ {
			if !enabled(s, signing, ev) {
				continue
			}
			buf = append(buf, ev)
			more := walk(apply(s, ev))
			buf = buf[:len(buf)-1]
			if !more {
				return false
			}
		}
		return true
	}
	walk(absState{})
}

// VerifyAll verifies every registered scheme concurrently and returns the
// reports in registry order (the order one shared test pins for
// deterministic CI logs).
func VerifyAll(opts Options) ([]*Report, error) {
	schemes := instrument.AllSchemes()
	reports := make([]*Report, len(schemes))
	errs := make([]error, len(schemes))
	var wg sync.WaitGroup
	for i, s := range schemes {
		wg.Add(1)
		go func(i int, s instrument.Scheme) {
			defer wg.Done()
			reports[i], errs[i] = Verify(s, opts)
		}(i, s)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", schemes[i], err)
		}
	}
	return reports, nil
}

// minimize shrinks a failing program with the attack harness's minimizer,
// keeping each deletion while the contract still rejects the program.
func minimize(scheme instrument.Scheme, failing []Event, mutate MutateFunc) (*Counterexample, error) {
	p := &attack.Program{Steps: render(failing, nil)}
	min := attack.Minimize(p, func(q *attack.Program) bool {
		chk, _, err := check(scheme, q.Steps, mutate, nil)
		return err == nil && len(chk.Violations()) > 0
	})
	var judged isa.CountSink
	chk, _, err := check(scheme, min.Steps, mutate, &judged)
	if err != nil {
		return nil, fmt.Errorf("protoverify: minimized program no longer executable: %w", err)
	}
	return &Counterexample{
		Steps:       min.Steps,
		OriginalLen: len(p.Steps),
		Violations:  chk.Violations(),
		Insts:       judged.Total,
	}, nil
}

// WriteTrace re-renders steps under the scheme, through the mutant that
// found them (nil for none), into a trace on w: the exact stream the
// checker judged, replayable with aossim -replay.
func WriteTrace(w io.Writer, scheme instrument.Scheme, steps []attack.Step, mutate MutateFunc) error {
	tw, err := trace.NewWriter(w)
	if err != nil {
		return err
	}
	var sink isa.Sink = tw
	if mutate != nil {
		sink = mutate(sink)
	}
	if _, err := attack.Execute(scheme, steps, sink); err != nil {
		return err
	}
	return tw.Close()
}
