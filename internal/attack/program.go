// Package attack is a HardsHeap-style adversarial harness for the heap
// protection schemes: a seedable, property-based generator of well-formed
// heap-attack programs (alloc/free/access sequences with exactly one
// marked violation), a driver that renders each program through the real
// per-scheme instrumentation into a core.Machine run, and a scorer that
// grades the outcome against internal/security's documented detection
// model — detected, probabilistically bypassed, or silently escaped. The
// paper's own §VII scenarios (Scenarios) are fixed programs of the same
// grammar, graded the same way.
//
// The representation deliberately mirrors internal/protoverify's event
// grammar, but where protoverify enumerates every abstract program to a
// small depth to prove the instrumentation CONTRACT, this package samples
// deep randomized programs to measure DETECTION: which concrete attack
// variants each scheme catches, and whether the model's deterministic
// promises hold on every sampled member (a miss is a harness failure, not
// a statistic).
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
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Step is one event of an attack program.
type Step struct {
	Kind Kind
	// Slot indexes the program's allocations in KAlloc order.
	Slot int
	// Size is the allocation size (KAlloc) or crafted chunk size
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

// Validate checks structural well-formedness: slots allocate in order,
// benign accesses stay in bounds of live slots, and exactly one step is
// marked as the attack. The same predicate guards minimization — a
// deletion that breaks it is rejected, so every minimized program is
// still a legal program of its class.
func (p *Program) Validate() error { return validate(p.Steps) }

func validate(steps []Step) error {
	type slotState struct {
		size uint64
		live bool
	}
	var slots []slotState
	attacks := 0
	crafted := false
	for i, st := range steps {
		switch st.Kind {
		case KAlloc:
			if st.Slot != len(slots) {
				return fmt.Errorf("step %d: alloc into slot %d, expected %d", i, st.Slot, len(slots))
			}
			// 8 KiB admits the §VII dangling-pointer scenario's chunk;
			// the generator draws nothing above 120 bytes.
			if st.Size == 0 || st.Size > 8192 {
				return fmt.Errorf("step %d: alloc size %d out of the harness range", i, st.Size)
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
		default:
			return fmt.Errorf("step %d: unknown kind %v", i, st.Kind)
		}
		if st.Attack {
			attacks++
		}
	}
	if attacks != 1 {
		return fmt.Errorf("program has %d attack steps, want exactly 1", attacks)
	}
	return nil
}

// Listing renders the program as a deterministic, human-readable recipe.
// The bytes are pinned by the golden test: they are part of the harness's
// reproducibility contract (same seed, same listing, any worker count).
func (p *Program) Listing() string {
	var b strings.Builder
	fmt.Fprintf(&b, "attack %s seed=%d steps=%d\n", p.Class, p.Seed, len(p.Steps))
	for i, st := range p.Steps {
		mark := " "
		if st.Attack {
			mark = "!"
		} else if st.Check {
			mark = "?"
		}
		fmt.Fprintf(&b, "%s %2d  %s\n", mark, i, st.describe())
	}
	return b.String()
}

func (st Step) describe() string {
	switch st.Kind {
	case KAlloc:
		return fmt.Sprintf("p%d = malloc(%d)", st.Slot, st.Size)
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
	default:
		return st.Kind.String()
	}
}
