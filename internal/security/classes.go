package security

import (
	"fmt"
	"strings"

	"aos/internal/instrument"
)

// Class is a heap-attack class in the PACSan-style violation taxonomy the
// adversarial harness (internal/attack) generates programs for and the
// detection-rate matrix is graded against. A Class names a whole family
// of programs, from the §VII scenarios' fixed exploits to every generated
// variant; Expected states how a scheme must behave on EVERY member.
type Class int

// Attack classes. The order is the matrix row order.
const (
	// LinearOverflow writes a contiguous walk past the end of a live
	// allocation (at least two 8-byte words, so the walk always crosses a
	// 16-byte tag-granule boundary).
	LinearOverflow Class = iota
	// OffByOne writes exactly one word at offset == requested size — the
	// smallest possible spatial violation, inside the allocator's own
	// rounding slack when size % 16 != 0.
	OffByOne
	// UAFRead loads through a dangling pointer after free, optionally
	// after filler allocations and a same-size reuse of the chunk.
	UAFRead
	// UAFWrite is UAFRead with a store.
	UAFWrite
	// DoubleFree frees a pointer twice, scribbling the tcache key in
	// between (the glibc §VII-D bypass) and optionally flushing the
	// hardened allocator's quarantine with a free storm first.
	DoubleFree
	// InvalidFree frees a misaligned or interior derived pointer.
	InvalidFree
	// FakeFree is the House-of-Spirit shape: free a crafted fake chunk
	// the allocator never handed out (Fig 1).
	FakeFree
	// MetadataCorruption overwrites the next chunk's inline size header
	// through an out-of-bounds store at usable(p)+8 (§VII-D).
	MetadataCorruption

	numClasses
)

// Classes returns every attack class in matrix row order.
func Classes() []Class {
	out := make([]Class, 0, int(numClasses))
	for c := Class(0); c < numClasses; c++ {
		out = append(out, c)
	}
	return out
}

// String renders the class name used in matrix rows, JSON documents and
// the aossim -attack flag.
func (c Class) String() string {
	switch c {
	case LinearOverflow:
		return "linear-overflow"
	case OffByOne:
		return "off-by-one"
	case UAFRead:
		return "uaf-read"
	case UAFWrite:
		return "uaf-write"
	case DoubleFree:
		return "double-free"
	case InvalidFree:
		return "invalid-free"
	case FakeFree:
		return "fake-free"
	case MetadataCorruption:
		return "metadata-corruption"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Valid reports whether c is a registered class.
func (c Class) Valid() bool { return c >= 0 && c < numClasses }

// ParseClass resolves a class name (case-insensitive) to its value.
func ParseClass(name string) (Class, error) {
	for c := Class(0); c < numClasses; c++ {
		if strings.EqualFold(name, c.String()) {
			return c, nil
		}
	}
	return 0, fmt.Errorf("security: unknown attack class %q (valid: %s)",
		name, strings.Join(ClassNames(), ", "))
}

// ClassNames returns every class name in matrix row order.
func ClassNames() []string {
	out := make([]string, 0, int(numClasses))
	for c := Class(0); c < numClasses; c++ {
		out = append(out, c.String())
	}
	return out
}

// Detection is the model's promise for one (scheme, class) cell: what a
// scheme must do on every well-formed program of the class.
type Detection int

// Detection promises.
const (
	// Never: the scheme has no mechanism for the class; every program
	// escapes silently. A detection here is a model violation.
	Never Detection = iota
	// Probabilistic: the scheme detects some programs of the class and a
	// documented mechanism (MTE tag collision, AOS PAC aliasing under
	// exact reuse, quarantine exhaustion, canary-miss windows) lets
	// others through. Both outcomes are legal.
	Probabilistic
	// Deterministic: the scheme must detect every program of the class; a
	// miss is a model violation.
	Deterministic
)

// String renders the promise for the matrix legend.
func (d Detection) String() string {
	switch d {
	case Deterministic:
		return "deterministic"
	case Probabilistic:
		return "probabilistic"
	default:
		return "never"
	}
}

// Expected is the documented detection model: the promise scheme s makes
// for attack class c. The reasoning per probabilistic cell:
//
//   - MTE spatial: an overflow staying inside the allocation's last,
//     rounding-padded 16-byte granule is invisible (OffByOne with
//     size%16 != 0); a contiguous walk of >= 2 words always crosses into
//     a granule that is untagged or foreign, so LinearOverflow is
//     deterministic.
//   - MTE temporal: freed granules are retagged 0, so a dangling access
//     faults — unless the chunk was reused and the 15-value allocation
//     tag cycle collided (1/15 for unrelated allocations; see
//     MTEBypassProbability).
//   - AOS temporal: pacma signs with (va, sp, size); a same-size reuse of
//     the same chunk produces a byte-identical signed pointer and
//     re-inserts equal bounds, so the stale pointer aliases the new
//     owner's entry and both a dangling access and a second free pass
//     the table checks. Without exact reuse, detection is certain.
//   - HardenedAlloc spatial: the after-payload canary is validated only
//     at free() of the clobbered chunk — a program that never frees the
//     victim escapes (the canary-miss window).
//   - HardenedAlloc temporal: the quarantine FIFO catches a double free
//     until a storm of >= QuarantineDepth frees flushes the chunk out
//     and a reuse makes the pointer "live" again.
//   - Watchdog frees: freeWatchdog only invalidates the lock — it checks
//     no identifier at free time, so DoubleFree and FakeFree pass
//     straight through to the (bypassed) glibc heuristics.
//   - InvalidFree: glibc's own alignment/size plausibility checks reject
//     misaligned and interior pointers under every scheme, so even
//     Baseline is deterministic (the mechanism differs: AOS faults at
//     bndclr, MTE/Watchdog/Baseline in the allocator).
func Expected(s instrument.Scheme, c Class) Detection {
	aos := s.SignsDataPointers()
	wd := s.HasWatchdogChecks()
	mte := s.UsesMemoryTagging()
	hard := s.HasHardenedAllocator()
	switch c {
	case LinearOverflow:
		switch {
		case wd || aos || mte:
			return Deterministic
		case hard:
			return Probabilistic // canary checked only at victim free
		}
		return Never
	case OffByOne:
		switch {
		case wd || aos:
			return Deterministic // bounds carry the exact requested size
		case mte:
			return Probabilistic // size%16 != 0 stays in the padded granule
		case hard:
			return Probabilistic // canary-miss window
		}
		return Never
	case UAFRead, UAFWrite:
		switch {
		case wd:
			return Deterministic // zeroed or re-assigned lock
		case aos:
			return Probabilistic // PAC aliasing under exact same-size reuse
		case mte:
			return Probabilistic // tag 0 unless reused; 1/15 cycle collision
		}
		return Never // hardened: poisons, but a read/write faults nothing
	case DoubleFree:
		switch {
		case aos:
			return Probabilistic // reuse re-inserts the aliased bounds
		case mte:
			return Probabilistic // reuse + tag-cycle collision
		case hard:
			return Probabilistic // quarantine exhaustion + reuse
		}
		return Never // glibc tcache key scribbled; Watchdog checks nothing at free
	case InvalidFree:
		return Deterministic
	case FakeFree:
		switch {
		case aos:
			return Deterministic // bndclr finds no bounds for the crafted pointer
		case hard:
			return Deterministic // ownership validation
		}
		return Never // glibc/MTE (tag 0 == tag 0) accept the crafted chunk
	case MetadataCorruption:
		switch {
		case wd || aos:
			return Deterministic // the header is past the object's bound
		case mte:
			return Deterministic // headers live in untagged granules
		}
		return Never // hardened: the store skips the canary word
	default:
		return Never
	}
}
