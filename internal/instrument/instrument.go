// Package instrument defines the protection schemes the evaluation
// compares (§VIII) and what each one inserts into the dynamic instruction
// stream — the role the paper's LLVM passes (AOS-opt-pass and
// AOS-backend-pass, §IV-B) and the baselines' instrumentation play:
//
//   - Baseline: nothing.
//   - Watchdog: a check micro-op before every memory access, identifier
//     metadata propagation on pointer arithmetic, shadow-metadata accesses
//     on pointer loads/stores, and lock allocate/invalidate at
//     malloc/free (Fig 5a).
//   - PA: return-address signing on every call/return plus on-load
//     authentication for code/data pointer integrity (Liljestrand et al.).
//   - AOS: pacma+bndstr after malloc, bndclr+xpacm before free and pacma
//     after it (Fig 7), with checking done implicitly by the MCU.
//   - PAAOS: AOS plus the PA pointer-integrity extension, with autm
//     replacing data-pointer re-authentication (Fig 13).
//
// Beyond the paper's five system configurations, the registry carries two
// comparison backends used by the security-evaluation matrix:
//
//   - MTE: ARM-style 4-bit lock-and-key memory tagging — allocations are
//     rounded to 16-byte tag granules, granules are retagged at malloc and
//     free (irg + one stg per granule), and every access checks the
//     pointer's tag against the granule's tag (Serebryany et al.).
//   - HardenedAlloc: a software-only hardened allocator — quarantine,
//     canaries, poison-on-free and zero-on-free as allocator-side state
//     plus extra plain instrumentation ops, with no MCU hardware.
//
// Each scheme is described by a Descriptor in the registry; the functional
// machine (internal/core), the trace sanitizer (internal/tracecheck) and
// the attack harness (internal/attack) all key their scheme-specific
// behavior off the Scheme value and the Descriptor's behavior flags.
package instrument

import (
	"fmt"
	"strings"
)

// Scheme selects the protection mechanism being simulated.
type Scheme int

// The five evaluated system configurations (§VIII) plus the two
// comparison backends of the extended security matrix.
const (
	// Baseline has no security features.
	Baseline Scheme = iota
	// Watchdog is the hardware bounds+UAF checking baseline [11].
	Watchdog
	// PA is PA-based code- and data-pointer integrity [21].
	PA
	// AOS is the paper's mechanism.
	AOS
	// PAAOS is AOS integrated with PA pointer integrity (§VII-B).
	PAAOS
	// MTE is ARM-style 4-bit lock-and-key memory tagging.
	MTE
	// HardenedAlloc is a software-only hardened allocator (quarantine,
	// canaries, poison-on-free, zero-on-free).
	HardenedAlloc
	numSchemes
)

// Memory-tagging model constants (MTE backend).
const (
	// TagGranule is the MTE tagging granule: allocations are rounded up
	// to this size and tags are stored per granule.
	TagGranule = 16
	// TagBits is the width of a memory tag.
	TagBits = 4
	// NumTags is the tag space (one value, 0, is reserved for untagged /
	// freed memory, leaving 15 allocation tags).
	NumTags = 1 << TagBits
)

// String names the scheme as the paper's figures do.
func (s Scheme) String() string {
	if s.Valid() {
		return registry[s].Name
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// Valid reports whether s is a registered scheme. Scheme values cross
// process boundaries as raw ints (JSON specs, flags), so range-check
// before trusting one.
func (s Scheme) Valid() bool { return s >= 0 && s < numSchemes }

// ParseScheme parses a scheme name, case-insensitively, accepting the
// canonical String() rendering and any registered alias. The error lists
// every valid name so a typo in a spec or -scheme flag is self-explaining.
func ParseScheme(name string) (Scheme, error) {
	for s := Scheme(0); s < numSchemes; s++ {
		d := &registry[s]
		if strings.EqualFold(name, d.Name) {
			return s, nil
		}
		for _, a := range d.Aliases {
			if strings.EqualFold(name, a) {
				return s, nil
			}
		}
	}
	return 0, fmt.Errorf("instrument: unknown scheme %q (valid: %s)", name, strings.Join(SchemeNames(), ", "))
}

// SchemeNames lists the canonical names of every registered scheme, in
// registry order.
func SchemeNames() []string {
	names := make([]string, numSchemes)
	for s := Scheme(0); s < numSchemes; s++ {
		names[s] = registry[s].Name
	}
	return names
}

// Schemes lists the paper's evaluated schemes in presentation order. The
// overhead figures (Fig 14/18) and their cached service matrices are
// pinned to exactly this set; use AllSchemes for the extended
// security-evaluation surface.
func Schemes() []Scheme { return []Scheme{Baseline, Watchdog, PA, AOS, PAAOS} }

// AllSchemes lists every registered scheme — the paper's five plus the
// comparison backends — in registry order.
func AllSchemes() []Scheme {
	all := make([]Scheme, numSchemes)
	for s := Scheme(0); s < numSchemes; s++ {
		all[s] = s
	}
	return all
}

// SignsDataPointers reports whether malloc'd pointers carry a PAC+AHC and
// accesses through them are MCU-checked.
func (s Scheme) SignsDataPointers() bool { return s.Valid() && registry[s].SignsDataPointers }

// HasWatchdogChecks reports whether Watchdog-style check micro-ops and
// metadata propagation are inserted.
func (s Scheme) HasWatchdogChecks() bool { return s.Valid() && registry[s].HasWatchdogChecks }

// HasReturnAddressSigning reports whether call/return pairs sign and
// authenticate the link register (Fig 3).
func (s Scheme) HasReturnAddressSigning() bool {
	return s.Valid() && registry[s].HasReturnAddressSigning
}

// HasOnLoadAuth reports whether pointer loads are authenticated when they
// arrive from memory (data-pointer integrity).
func (s Scheme) HasOnLoadAuth() bool { return s.Valid() && registry[s].HasOnLoadAuth }

// UsesAutm reports whether on-load authentication uses the cheap autm
// AHC check instead of a full cryptographic autia (Fig 13): under PA+AOS,
// data pointers were signed by pacma over their base address, so
// recomputing the PAC at an interior address would fail — autm checks only
// that the AHC is nonzero.
func (s Scheme) UsesAutm() bool { return s.Valid() && registry[s].UsesAutm }

// UsesMemoryTagging reports whether allocations are tag-granule rounded
// and every access carries a pointer-tag vs memory-tag check (MTE).
func (s Scheme) UsesMemoryTagging() bool { return s.Valid() && registry[s].UsesMemoryTagging }

// HasHardenedAllocator reports whether the allocator runs with hardening
// features (quarantine, canaries, poison/zero-on-free) instead of any
// hardware mechanism.
func (s Scheme) HasHardenedAllocator() bool { return s.Valid() && registry[s].HasHardenedAllocator }

// Watchdog metadata model constants (§III, challenge discussion): each
// tracked object has a 24-byte metadata record (base, bound, key) reached
// through a lock-location pointer, and an 8-byte lock location holding the
// allocation identifier.
const (
	// WDMetaBytes is Watchdog's per-object metadata footprint (vs 8 bytes
	// in AOS) — the cache-pollution disadvantage Fig 18 shows.
	WDMetaBytes = 24
	// WDLockBytes is one lock location.
	WDLockBytes = 8
)
