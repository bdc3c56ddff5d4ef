// Package protoverify is a bounded model checker for the per-scheme
// instrumentation protocols. For each registered protection scheme it
// exhaustively enumerates every heap-event program up to depth k —
// allocation, free (valid, double, via realloc), in-bounds and violating
// accesses, call/ret nesting, and forced HBT resizes — drives each program
// through the scheme's instrumentation rewriter (core.Machine), and
// asserts the emitted dynamic-instruction stream is accepted by the
// scheme's tracecheck.Contract.
//
// Acceptance alone is weak: a contract whose rules never arm accepts
// everything. The checker therefore also aggregates per-rule coverage
// (tracecheck's armed-predicate counters) across the enumeration and
// fails a scheme whose expected rules stay dead — the small-scope
// guarantee is "every bounded program accepted AND every contract rule
// exercised", which is what makes adding a registry backend statically
// checkable at go test time with no simulated workload.
//
// The events are an enumeration grammar only: each event renders to
// canonical steps of internal/attack's heap-program model, and programs
// run on that package's executor. When a program is rejected, its steps
// are shrunk by the same package's minimizer — any deletion the shared
// structural predicate allows, kept while the contract still rejects the
// program — and re-run to record the exact instruction stream the checker
// saw as a replayable aossim -replay trace.
package protoverify

import "aos/internal/attack"

// Event is one symbolic step of a heap-event program. The alphabet is
// deliberately small-scope: one canonical representative per protocol
// branch of the instrumentation rewriter, so depth-k enumeration covers
// every interleaving of protocol-relevant behavior without enumerating
// payload values.
type Event uint8

// The event alphabet. Enumeration order is the declaration order; it fixes
// which counterexample is "first" and keeps CI logs deterministic.
const (
	// EvAlloc allocates a fresh chunk (malloc(48)) and makes it the newest
	// live slot.
	EvAlloc Event = iota
	// EvFree frees the newest live slot; the dangling pointer is retained
	// for EvFreeStale/EvAccessFreed.
	EvFree
	// EvFreeStale frees through the newest dangling pointer (double free).
	EvFreeStale
	// EvRealloc reallocs the newest live slot to a larger size; the old
	// pointer value becomes dangling (AOS kills it even in place: the size
	// is a PAC modifier).
	EvRealloc
	// EvAccess performs an in-bounds load and store through the newest
	// live slot.
	EvAccess
	// EvAccessOOB loads far past the newest live slot's bounds.
	EvAccessOOB
	// EvAccessFreed loads through the newest dangling pointer (UAF).
	EvAccessFreed
	// EvCall enters a function frame (under RAS: pacia/autia pairing).
	EvCall
	// EvRet leaves the innermost frame.
	EvRet
	// EvResize forces an HBT associativity doubling by filling the home
	// row of a predicted allocation (signing schemes only).
	EvResize
	numEvents
)

var eventNames = [numEvents]string{
	EvAlloc:       "alloc",
	EvFree:        "free",
	EvFreeStale:   "free-stale",
	EvRealloc:     "realloc",
	EvAccess:      "access",
	EvAccessOOB:   "access-oob",
	EvAccessFreed: "access-freed",
	EvCall:        "call",
	EvRet:         "ret",
	EvResize:      "hbt-resize",
}

// String names the event.
func (e Event) String() string {
	if int(e) < len(eventNames) {
		return eventNames[e]
	}
	return "event?"
}

// Small-scope bounds on the abstract program state. Two live slots, two
// dangling slots and two frames are enough to express every pairwise
// protocol interleaving (alloc-over-alloc, free-under-call, stale-vs-live
// aliasing); resizes are capped because each one doubles the table (the
// HBT tops out at 64 ways from an initial 1, i.e. six doublings — one of
// headroom is kept for incidental resizes caused by row-fill residue).
const (
	maxLive    = 2
	maxFreed   = 2
	maxDepth   = 2
	maxResizes = 5
)

// absState is the machine-independent abstraction of the program state the
// event grammar is gated on. It must stay exact with respect to render's
// slot bookkeeping — enabledness decides the enumeration tree, and render
// replays the same bookkeeping — so every transition below is defined
// without reference to heap layout (e.g. EvRealloc always retires the old
// pointer to the dangling set, whether or not the chunk moved).
type absState struct {
	live    int
	freed   int
	depth   int
	resizes int
}

// enabled reports whether the event may extend a program in state s under
// the given scheme's alphabet.
func enabled(s absState, signing bool, ev Event) bool {
	switch ev {
	case EvAlloc:
		return s.live < maxLive
	case EvFree, EvRealloc:
		return s.live > 0 && s.freed < maxFreed
	case EvFreeStale, EvAccessFreed:
		return s.freed > 0
	case EvAccess, EvAccessOOB:
		return s.live > 0
	case EvCall:
		return s.depth < maxDepth
	case EvRet:
		return s.depth > 0
	case EvResize:
		return signing && s.resizes < maxResizes
	default:
		return false
	}
}

// apply returns the successor abstract state. Call only for enabled events.
func apply(s absState, ev Event) absState {
	switch ev {
	case EvAlloc:
		s.live++
	case EvFree:
		s.live--
		s.freed++
	case EvRealloc:
		s.freed++ // old pointer value retires; slot count unchanged
	case EvCall:
		s.depth++
	case EvRet:
		s.depth--
	case EvResize:
		s.resizes++
	case EvFreeStale, EvAccess, EvAccessOOB, EvAccessFreed:
		// No bookkeeping change.
	default:
		// Unknown events are never enabled.
	}
	return s
}

// Canonical event payloads. allocSize and reallocSize are protocol-
// irrelevant except that reallocSize must exceed allocSize (growth is the
// interesting realloc direction: it may move the chunk).
const (
	allocSize   = 48
	reallocSize = 96
	oobOffset   = 1 << 20
)

// render appends the canonical steps of an event program to steps. It
// replays apply's bookkeeping over concrete slots: live and freed are
// stacks of slot indices, newest last, and every event addresses the
// newest slot of its kind. Events that violate memory safety render to
// attack-marked steps, so the program meets the shared structural
// predicate the minimizer keeps.
func render(events []Event, steps []attack.Step) []attack.Step {
	var liveBuf [maxLive]int
	var freedBuf [maxFreed]int
	live, freed := liveBuf[:0], freedBuf[:0]
	slots := 0
	for _, ev := range events {
		switch ev {
		case EvAlloc:
			steps = append(steps, attack.Step{Kind: attack.KAlloc, Slot: slots, Size: allocSize})
			live = append(live, slots)
			slots++
		case EvFree:
			s := live[len(live)-1]
			live = live[:len(live)-1]
			freed = append(freed, s)
			steps = append(steps, attack.Step{Kind: attack.KFree, Slot: s})
		case EvFreeStale:
			steps = append(steps, attack.Step{Kind: attack.KFree, Slot: freed[len(freed)-1], Attack: true})
		case EvRealloc:
			s := live[len(live)-1]
			live[len(live)-1] = slots
			slots++
			freed = append(freed, s)
			steps = append(steps, attack.Step{Kind: attack.KRealloc, Slot: s, Size: reallocSize})
		case EvAccess:
			s := live[len(live)-1]
			steps = append(steps,
				attack.Step{Kind: attack.KLoad, Slot: s, Off: 8},
				attack.Step{Kind: attack.KStore, Slot: s, Off: 16})
		case EvAccessOOB:
			steps = append(steps, attack.Step{Kind: attack.KLoad, Slot: live[len(live)-1], Off: oobOffset, Attack: true})
		case EvAccessFreed:
			steps = append(steps, attack.Step{Kind: attack.KLoad, Slot: freed[len(freed)-1], Attack: true})
		case EvCall:
			steps = append(steps, attack.Step{Kind: attack.KCall})
		case EvRet:
			steps = append(steps, attack.Step{Kind: attack.KRet})
		case EvResize:
			steps = append(steps, attack.Step{Kind: attack.KHBTResize})
		}
	}
	return steps
}
