// Package attack is the repo's one heap-program model and a
// HardsHeap-style adversarial harness built on it: a seedable,
// property-based generator of well-formed heap-attack programs
// (alloc/free/access sequences with exactly one marked violation), an
// executor that renders any step program through the real per-scheme
// instrumentation into a core.Machine run, a greedy minimizer, and a
// scorer that grades an attack's outcome against internal/security's
// documented detection model — detected, probabilistically bypassed, or
// silently escaped. The paper's own §VII scenarios (Scenarios) are fixed
// programs of the same grammar, graded the same way, and
// internal/protoverify renders each enumerated event program to these
// steps and runs it on the same executor and minimizer.
package attack

import (
	"fmt"
	"strings"

	"aos/internal/security"
)

// Kind is one step's operation.
type Kind int

// Step kinds. Steps are deliberately higher-level than machine calls:
// each renders to one instrumented operation (or one attacker primitive)
// so listings read like the exploit recipes they model.
const (
	// KAlloc allocates Size bytes into Slot.
	KAlloc Kind = iota
	// KFree frees Slot's pointer (possibly stale — that is the point).
	KFree
	// KLoad is a checked load through Slot's pointer at Off.
	KLoad
	// KStore is a checked store of Val through Slot's pointer at Off.
	KStore
	// KOverflow is a checked store walk: Count words from Off upward.
	KOverflow
	// KHeaderStore is a checked store at usable(Slot)+8 — the next
	// chunk's inline size header (resolved against the live allocator,
	// since hardened canary slack changes the usable size).
	KHeaderStore
	// KFreeOff frees a pointer derived from Slot by PointerArith(Off) —
	// a misaligned or interior free.
	KFreeOff
	// KScribble is the attacker's raw write of Val at Slot's base + Off
	// (e.g. zeroing the tcache key). Raw writes model a primitive the
	// attacker already has; they are invisible to every scheme.
	KScribble
	// KCraftFake raw-writes a fake chunk's size fields at global address
	// Addr with chunk size Size (Fig 1 lines 10-12).
	KCraftFake
	// KFakeFree frees the crafted pointer Addr+16.
	KFakeFree
	// KRealloc reallocs Slot's pointer to Size bytes. The result takes
	// the next slot; when realloc errs, that slot keeps the old pointer.
	// Either way Slot's pointer is retired.
	KRealloc
	// KCall enters a function frame (under RAS: a pacia/autia pair).
	KCall
	// KRet leaves the innermost frame.
	KRet
	// KHBTResize forces an HBT associativity doubling by filling the
	// home row of a predicted allocation (signing schemes only).
	KHBTResize
)

// String names the kind for listings.
func (k Kind) String() string {
	switch k {
	case KAlloc:
		return "alloc"
	case KFree:
		return "free"
	case KLoad:
		return "load"
	case KStore:
		return "store"
	case KOverflow:
		return "overflow"
	case KHeaderStore:
		return "header-store"
	case KFreeOff:
		return "free-at"
	case KScribble:
		return "scribble"
	case KCraftFake:
		return "craft-fake"
	case KFakeFree:
		return "fake-free"
	case KRealloc:
		return "realloc"
	case KCall:
		return "call"
	case KRet:
		return "ret"
	case KHBTResize:
		return "hbt-resize"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Step is one event of an attack program.
type Step struct {
	Kind Kind
	// Slot indexes the program's pointers in the order KAlloc and
	// KRealloc steps produce them.
	Slot int
	// Size is the allocation or realloc size, or the crafted chunk size
	// (KCraftFake).
	Size uint64
	// Off is the access offset, free delta, or scribble offset.
	Off uint64
	// Val is the stored/scribbled value.
	Val uint64
	// Count is the overflow walk length in 8-byte words.
	Count int
	// Addr is the crafted chunk's global address (KCraftFake/KFakeFree).
	Addr uint64
	// Attack marks the violating step — the one the verdict hangs on.
	Attack bool
	// Check marks a post-attack step that exists to trigger deferred
	// detection (e.g. the victim free that validates a clobbered canary).
	Check bool
}

// Program is one attack: a well-formed step sequence with exactly one
// Attack step, tagged with its class and the seed it was drawn from (0
// for a fixed §VII scenario) so escapes are reproducible from the listing
// alone.
type Program struct {
	Class security.Class
	Seed  uint64
	Steps []Step
}

// Validate checks that the program is a well-formed attack: it meets the
// structural predicate (validate) and exactly one step is marked as the
// attack. Attack minimizations keep it in their predicate, so every
// minimized program is still a legal program of its class.
func (p *Program) Validate() error {
	if err := validate(p.Steps); err != nil {
		return err
	}
	attacks := 0
	for _, st := range p.Steps {
		if st.Attack {
			attacks++
		}
	}
	if attacks != 1 {
		return fmt.Errorf("program has %d attack steps, want exactly 1", attacks)
	}
	return nil
}

// validate is the structural predicate every step program meets: slots
// are produced in order and used only once produced, each step's
// liveness and bounds match its attack mark, and no ret leaves the
// outermost frame. Minimize re-checks it on every deletion, so a shrink
// can never turn a marked violation into a legal operation.
func validate(steps []Step) error {
	type slotState struct {
		size uint64
		live bool
	}
	var slots []slotState
	crafted := false
	depth := 0
	for i, st := range steps {
		switch st.Kind {
		case KAlloc, KRealloc:
			if st.Kind == KAlloc && st.Slot != len(slots) {
				return fmt.Errorf("step %d: alloc into slot %d, expected %d", i, st.Slot, len(slots))
			}
			if st.Kind == KRealloc {
				if st.Slot >= len(slots) || !slots[st.Slot].live || st.Attack {
					return fmt.Errorf("step %d: realloc needs a live slot and no attack mark", i)
				}
				slots[st.Slot].live = false
			}
			// 8 KiB admits the §VII dangling-pointer scenario's chunk;
			// the generator draws nothing above 120 bytes.
			if st.Size == 0 || st.Size > 8192 {
				return fmt.Errorf("step %d: %v size %d out of the harness range", i, st.Kind, st.Size)
			}
			slots = append(slots, slotState{size: st.Size, live: true})
		case KFree:
			if st.Slot >= len(slots) {
				return fmt.Errorf("step %d: free of unallocated slot %d", i, st.Slot)
			}
			if st.Attack != !slots[st.Slot].live {
				// A benign free needs a live slot; an attacking free must be
				// a genuine double free — otherwise minimization could
				// degenerate the attack into a legal operation.
				return fmt.Errorf("step %d: free liveness does not match its attack mark", i)
			}
			if !st.Attack {
				slots[st.Slot].live = false
			}
			// An attacking double free leaves the abstract state alone:
			// whether the concrete free succeeded is scheme-dependent.
		case KLoad, KStore:
			if st.Slot >= len(slots) {
				return fmt.Errorf("step %d: access to unallocated slot %d", i, st.Slot)
			}
			s := slots[st.Slot]
			violating := !s.live || st.Off+8 > s.size
			if st.Attack != violating {
				return fmt.Errorf("step %d: access legality does not match its attack mark", i)
			}
		case KOverflow:
			if st.Slot >= len(slots) || !st.Attack {
				return fmt.Errorf("step %d: overflow must attack an allocated slot", i)
			}
			if st.Count < 2 {
				return fmt.Errorf("step %d: overflow walk must span >= 2 words", i)
			}
		case KHeaderStore:
			if st.Slot >= len(slots) || !slots[st.Slot].live || !st.Attack {
				return fmt.Errorf("step %d: header-store must attack a live slot", i)
			}
		case KFreeOff:
			if st.Slot >= len(slots) || !slots[st.Slot].live || !st.Attack {
				return fmt.Errorf("step %d: free-at must attack a live slot", i)
			}
			if st.Off == 0 {
				return fmt.Errorf("step %d: free-at with zero delta is a plain free", i)
			}
		case KScribble:
			if st.Slot >= len(slots) {
				return fmt.Errorf("step %d: scribble on unallocated slot %d", i, st.Slot)
			}
		case KCraftFake:
			if st.Size < 32 || st.Size%16 != 0 {
				return fmt.Errorf("step %d: crafted chunk size %#x not plausible", i, st.Size)
			}
			crafted = true
		case KFakeFree:
			if !crafted || !st.Attack {
				return fmt.Errorf("step %d: fake-free needs a crafted chunk and the attack mark", i)
			}
		case KCall, KRet, KHBTResize:
			if st.Attack {
				return fmt.Errorf("step %d: %v cannot carry the attack mark", i, st.Kind)
			}
			if st.Kind == KCall {
				depth++
			} else if st.Kind == KRet {
				if depth == 0 {
					return fmt.Errorf("step %d: ret with no open frame", i)
				}
				depth--
			}
		default:
			return fmt.Errorf("step %d: unknown kind %v", i, st.Kind)
		}
	}
	return nil
}

// Listing renders the program as a deterministic, human-readable recipe.
// The bytes are pinned by the golden test: they are part of the harness's
// reproducibility contract (same seed, same listing, any worker count).
func (p *Program) Listing() string {
	return fmt.Sprintf("attack %s seed=%d steps=%d\n", p.Class, p.Seed, len(p.Steps)) +
		StepListing(p.Steps)
}

// StepListing renders one line per step: a mark ("!" attack, "?" check),
// the step's index and what it does.
func StepListing(steps []Step) string {
	var b strings.Builder
	next := 0 // the slot the next alloc or realloc produces
	for i, st := range steps {
		mark := " "
		if st.Attack {
			mark = "!"
		} else if st.Check {
			mark = "?"
		}
		fmt.Fprintf(&b, "%s %2d  %s\n", mark, i, st.describe(next))
		if producesSlot(st.Kind) {
			next++
		}
	}
	return b.String()
}

// describe renders the step; next is the slot a realloc's result takes.
func (st Step) describe(next int) string {
	switch st.Kind {
	case KAlloc:
		return fmt.Sprintf("p%d = malloc(%d)", st.Slot, st.Size)
	case KRealloc:
		return fmt.Sprintf("p%d = realloc(p%d, %d)", next, st.Slot, st.Size)
	case KFree:
		return fmt.Sprintf("free(p%d)", st.Slot)
	case KLoad:
		return fmt.Sprintf("load p%d[%d]", st.Slot, st.Off)
	case KStore:
		return fmt.Sprintf("store p%d[%d] = %#x", st.Slot, st.Off, st.Val)
	case KOverflow:
		return fmt.Sprintf("overflow p%d[%d..%d] = %#x (%d words)",
			st.Slot, st.Off, st.Off+8*uint64(st.Count), st.Val, st.Count)
	case KHeaderStore:
		return fmt.Sprintf("store p%d[usable+8] = %#x (next chunk size header)", st.Slot, st.Val)
	case KFreeOff:
		return fmt.Sprintf("free(p%d + %d)", st.Slot, st.Off)
	case KScribble:
		return fmt.Sprintf("raw write p%d+%d = %#x", st.Slot, st.Off, st.Val)
	case KCraftFake:
		return fmt.Sprintf("craft fake chunk @ %#x size %#x", st.Addr, st.Size)
	case KFakeFree:
		return fmt.Sprintf("free(%#x) (crafted)", st.Addr+16)
	case KHBTResize:
		return "force an HBT resize"
	default:
		return st.Kind.String()
	}
}
