package attack

import (
	"fmt"
	"io"

	"aos/internal/core"
	"aos/internal/instrument"
	"aos/internal/isa"
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
// each slot's allocation returned.
func runSink(p *Program, s instrument.Scheme, sink isa.Sink) (Result, []core.Ptr, error) {
	res := Result{Scheme: s, Expected: security.Expected(s, p.Class), DetectedAt: -1}
	m, err := core.New(core.Config{Scheme: s})
	if err != nil {
		return res, nil, err
	}
	if sink != nil {
		m.SetSink(sink)
	}

	// ptrs holds the pointer each slot's allocation returned — including
	// stale copies after free, which is what temporal attacks dereference.
	var ptrs []core.Ptr
	for i, st := range p.Steps {
		var stepErr error
		switch st.Kind {
		case KAlloc:
			var q core.Ptr
			q, stepErr = m.Malloc(st.Size)
			if stepErr == nil {
				ptrs = append(ptrs, q)
			}
		case KFree:
			stepErr = m.Free(ptrs[st.Slot])
		case KLoad:
			_, stepErr = m.LoadU64(ptrs[st.Slot], st.Off)
		case KStore:
			stepErr = m.StoreU64(ptrs[st.Slot], st.Off, st.Val)
		case KOverflow:
			for w := 0; w < st.Count && stepErr == nil; w++ {
				stepErr = m.StoreU64(ptrs[st.Slot], st.Off+8*uint64(w), st.Val)
			}
		case KHeaderStore:
			// The next chunk's size word sits at usable+8: usable bytes of
			// payload, then the 16-byte boundary header's second word. The
			// offset is resolved against the live allocator because the
			// hardened allocator's canary slack widens the chunk.
			off := m.Heap.UsableSize(ptrs[st.Slot].VA()) + 8
			stepErr = m.StoreU64(ptrs[st.Slot], off, st.Val)
		case KFreeOff:
			stepErr = m.Free(m.PointerArith(ptrs[st.Slot], int64(st.Off)))
		case KScribble:
			// Raw attacker primitive: invisible to every scheme.
			m.Mem.WriteU64(ptrs[st.Slot].VA()+st.Off, st.Val)
		case KCraftFake:
			// Fig 1 lines 10-12: a plausible fake chunk — its own size word
			// and the next chunk's, so even fastbin's next-size check passes.
			m.Mem.WriteU64(st.Addr+8, st.Size)
			m.Mem.WriteU64(st.Addr+st.Size+8, st.Size)
		case KFakeFree:
			stepErr = m.Free(core.Ptr{Raw: st.Addr + 16})
		default:
			return res, nil, fmt.Errorf("attack: unknown step kind %v", st.Kind)
		}
		if stepErr != nil {
			if !st.Attack && !st.Check {
				return res, nil, fmt.Errorf("attack: benign step %d (%s) failed under %v: %w",
					i, st.describe(), s, stepErr)
			}
			res.DetectedAt = i
			res.Err = stepErr
			break
		}
	}
	m.Flush()

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
	return res, ptrs, nil
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
