package attack

import (
	"fmt"
	"io"

	"aos/internal/core"
	"aos/internal/instrument"
	"aos/internal/isa"
	"aos/internal/pa"
	"aos/internal/security"
	"aos/internal/trace"
)

// Verdict grades one (program, scheme) run against the detection model.
type Verdict int

// Verdicts. Detected/Bypassed/Escaped are the statistics the matrix
// counts; Missed and Phantom are model violations — the run contradicted
// a deterministic promise, which fails the harness, never a cell.
const (
	// VerdictDetected: the scheme raised a violation at the attack (or a
	// deferred check step).
	VerdictDetected Verdict = iota
	// VerdictBypassed: undetected, inside a documented probabilistic
	// bypass window.
	VerdictBypassed
	// VerdictEscaped: undetected, and the model says the scheme has no
	// mechanism for this class.
	VerdictEscaped
	// VerdictMissed: undetected although the model promises deterministic
	// detection. A model violation.
	VerdictMissed
	// VerdictPhantom: detected although the model promises the class
	// always escapes. Also a model violation.
	VerdictPhantom
)

// String renders the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictDetected:
		return "DETECTED"
	case VerdictBypassed:
		return "bypassed"
	case VerdictEscaped:
		return "ESCAPED"
	case VerdictMissed:
		return "MISSED"
	case VerdictPhantom:
		return "PHANTOM"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Violation reports whether the verdict contradicts the model.
func (v Verdict) Violation() bool { return v == VerdictMissed || v == VerdictPhantom }

// Result is one graded run.
type Result struct {
	Scheme   instrument.Scheme
	Expected security.Detection
	Verdict  Verdict
	// DetectedAt is the index of the step that raised the violation
	// (-1 when undetected).
	DetectedAt int
	// Err is the violation the scheme raised (nil when undetected).
	Err error
}

// Run renders the program through scheme s's real instrumentation into a
// fresh core.Machine and grades the outcome. An error return is a HARNESS
// failure (a benign step errored — generated programs never do), not a
// detection: detections live in the Result.
func Run(p *Program, s instrument.Scheme) (Result, error) {
	res, _, err := runSink(p, s, nil)
	return res, err
}

// WriteTrace re-runs the program under s with a trace.Writer attached, so
// an escape can be replayed (and protocol-checked) by `aossim -replay`.
// The graded result is returned alongside.
func WriteTrace(p *Program, s instrument.Scheme, w io.Writer) (Result, error) {
	tw, err := trace.NewWriter(w)
	if err != nil {
		return Result{}, err
	}
	res, _, err := runSink(p, s, tw)
	if err != nil {
		return res, err
	}
	return res, tw.Close()
}

// runSink is Run with an optional trace sink; it also returns the pointer
// each slot's step produced.
func runSink(p *Program, s instrument.Scheme, sink isa.Sink) (Result, []core.Ptr, error) {
	res := Result{Scheme: s, Expected: security.Expected(s, p.Class), DetectedAt: -1}
	x, err := Execute(s, p.Steps, sink)
	if err != nil {
		return res, nil, err
	}
	if x.Err != nil {
		if st := p.Steps[x.At]; !st.Attack && !st.Check {
			return res, nil, fmt.Errorf("attack: benign step %d (%s) failed under %v: %w",
				x.At, st.describe(slotsBefore(p.Steps, x.At)), s, x.Err)
		}
		res.DetectedAt = x.At
		res.Err = x.Err
	}

	detected := res.Err != nil
	switch {
	case detected && res.Expected == security.Never:
		res.Verdict = VerdictPhantom
	case detected:
		res.Verdict = VerdictDetected
	case res.Expected == security.Deterministic:
		res.Verdict = VerdictMissed
	case res.Expected == security.Probabilistic:
		res.Verdict = VerdictBypassed
	default:
		res.Verdict = VerdictEscaped
	}
	return res, x.Ptrs, nil
}

// Execution is what running a step program did.
type Execution struct {
	// Err is the first error a step raised (nil when none did) and At its
	// step index (-1 when none). Every step runs regardless: the executor
	// reports a violation and resumes, like a handler that logs and
	// continues.
	Err error
	At  int
	// Insts counts the instructions the machine emitted.
	Insts uint64
	// Ptrs holds the pointer each slot's step produced — including stale
	// copies after free, which is what temporal attacks dereference.
	Ptrs []core.Ptr
}

// Execute renders the steps through scheme s's real instrumentation into
// a fresh core.Machine whose stream goes to sink (nil discards it). The
// error return is a harness failure — a failed alloc or a resize that
// could not be forced leaves later steps nothing to run on — never a
// step's violation, which lives in the Execution.
func Execute(s instrument.Scheme, steps []Step, sink isa.Sink) (Execution, error) {
	x := Execution{At: -1}
	m, err := core.New(core.Config{Scheme: s})
	if err != nil {
		return x, err
	}
	if sink != nil {
		m.SetSink(sink)
	}
	for i, st := range steps {
		var stepErr error
		switch st.Kind {
		case KAlloc:
			q, err := m.Malloc(st.Size)
			if err != nil {
				return x, fmt.Errorf("attack: step %d (%s) failed under %v: %w",
					i, st.describe(len(x.Ptrs)), s, err)
			}
			x.Ptrs = append(x.Ptrs, q)
		case KRealloc:
			q, err := m.Realloc(x.Ptrs[st.Slot], st.Size)
			if err != nil {
				q = x.Ptrs[st.Slot]
			}
			x.Ptrs = append(x.Ptrs, q)
			stepErr = err
		case KFree:
			stepErr = m.Free(x.Ptrs[st.Slot])
		case KLoad:
			_, stepErr = m.LoadU64(x.Ptrs[st.Slot], st.Off)
		case KStore:
			stepErr = m.StoreU64(x.Ptrs[st.Slot], st.Off, st.Val)
		case KOverflow:
			for w := 0; w < st.Count && stepErr == nil; w++ {
				stepErr = m.StoreU64(x.Ptrs[st.Slot], st.Off+8*uint64(w), st.Val)
			}
		case KHeaderStore:
			// The next chunk's size word sits at usable+8: usable bytes of
			// payload, then the 16-byte boundary header's second word. The
			// offset is resolved against the live allocator because the
			// hardened allocator's canary slack widens the chunk.
			off := m.Heap.UsableSize(x.Ptrs[st.Slot].VA()) + 8
			stepErr = m.StoreU64(x.Ptrs[st.Slot], off, st.Val)
		case KFreeOff:
			stepErr = m.Free(m.PointerArith(x.Ptrs[st.Slot], int64(st.Off)))
		case KScribble:
			// Raw attacker primitive: invisible to every scheme.
			m.Mem.WriteU64(x.Ptrs[st.Slot].VA()+st.Off, st.Val)
		case KCraftFake:
			// Fig 1 lines 10-12: a plausible fake chunk — its own size word
			// and the next chunk's, so even fastbin's next-size check passes.
			m.Mem.WriteU64(st.Addr+8, st.Size)
			m.Mem.WriteU64(st.Addr+st.Size+8, st.Size)
		case KFakeFree:
			stepErr = m.Free(core.Ptr{Raw: st.Addr + 16})
		case KCall:
			m.Call()
		case KRet:
			m.Ret()
		case KHBTResize:
			if err := forceResize(m); err != nil {
				return x, fmt.Errorf("attack: step %d under %v: %w", i, s, err)
			}
		default:
			return x, fmt.Errorf("attack: unknown step kind %v", st.Kind)
		}
		if stepErr != nil && x.Err == nil {
			x.Err = stepErr
			x.At = i
		}
	}
	m.Flush()
	x.Insts = m.Counts().Total
	return x, nil
}

// Forced-resize geometry. probeSize is the resize probe's size class —
// larger than any other allocation of an enumerated program, so a freed
// probe chunk can only be reused by the next probe, which is what makes
// the home-row prediction reliable. fakeBoundsOffset is the heap offset
// where filler bounds live: inside the HBT's 33-bit coverage window but
// gigabytes above any address a program's own chunks reach, so filler
// entries can never cover (or match the base of) a real access.
const (
	probeSize        = 4096
	fakeBoundsOffset = 0x1_8000_0000
)

// forceResize drives the machine into an HBT associativity doubling using
// only architectural operations plus direct (instruction-free) filler
// insertions into the real table:
//
//  1. malloc a probe chunk and observe its PAC;
//  2. free it (its chunk becomes the allocator's preferred reuse for the
//     next probe-sized request);
//  3. fill the PAC's home row to capacity with filler bounds far outside
//     any reachable address window;
//  4. malloc again: the allocator reuses the same VA, the PA unit derives
//     the same PAC, the insert hits a full row, and the OS resize runs —
//     announced by a Resize-flagged bndstr, which is exactly the
//     transition tracecheck's TC08 checks.
//
// Allocator coalescing can occasionally hand back a different VA (a freed
// neighbour merged), which lands in an unfilled row; the loop then fills
// that row too and retries. Each attempt fills one more row, so the walk
// terminates — the cap only guards against a broken prediction model. The
// probe that triggers the resize stays allocated and out of the slots:
// its home row is saturated, so no step may free it.
func forceResize(m *core.Machine) error {
	for attempt := 0; attempt < 32; attempt++ {
		before := m.Table().Assoc()
		p, err := m.Malloc(probeSize)
		if err != nil {
			return fmt.Errorf("resize probe malloc failed: %w", err)
		}
		if m.Table().Assoc() > before {
			return nil
		}
		pacv := pa.PAC(p.Raw)
		if err := m.Free(p); err != nil {
			return fmt.Errorf("resize probe free failed: %w", err)
		}
		t := m.Table()
		base := m.Heap.Base() + fakeBoundsOffset + uint64(attempt)<<20
		for {
			if _, err := t.Insert(pacv, base, 16); err != nil {
				break // row full
			}
			base += 16
		}
	}
	return fmt.Errorf("HBT resize not forced after 32 probe attempts")
}

// RunAll grades the program under every registered scheme, in registry
// order.
func RunAll(p *Program) ([]Result, error) {
	schemes := instrument.AllSchemes()
	out := make([]Result, 0, len(schemes))
	for _, s := range schemes {
		r, err := Run(p, s)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
