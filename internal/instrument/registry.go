package instrument

// Descriptor bundles what the toolchain knows about one protection
// scheme: its canonical name (the String() rendering the figures use),
// accepted parse aliases, a one-line model summary, and the behavior
// flags the instrumentation rewriter, the functional machine
// (internal/core), the trace-contract sanitizer (internal/tracecheck)
// and the detection model (internal/security) dispatch on.
//
// Adding a backend means adding a Scheme constant, a registry entry, a
// tracecheck contract for any new ops it emits, core-machine behavior
// keyed off its flags, and golden op-count rows — see DESIGN.md
// ("Scheme registry").
type Descriptor struct {
	// Name is the canonical rendering (what String returns and what the
	// figure columns are labeled with).
	Name string
	// Aliases are additional accepted spellings for ParseScheme; matching
	// is case-insensitive for Name and Aliases alike.
	Aliases []string
	// Summary is a one-line description of the protection model.
	Summary string

	// SignsDataPointers: malloc'd pointers carry a PAC+AHC, accesses are
	// MCU bounds-checked (AOS family).
	SignsDataPointers bool
	// HasWatchdogChecks: check micro-ops before accesses plus identifier
	// metadata propagation (Watchdog).
	HasWatchdogChecks bool
	// HasReturnAddressSigning: call/return pairs sign/authenticate the
	// link register (PA family).
	HasReturnAddressSigning bool
	// HasOnLoadAuth: pointer loads re-authenticate the loaded pointer.
	HasOnLoadAuth bool
	// UsesAutm: on-load auth is the cheap AHC check, not full autia.
	UsesAutm bool
	// UsesMemoryTagging: allocations are granule-rounded and tagged;
	// accesses compare pointer tag against memory tag (MTE).
	UsesMemoryTagging bool
	// HasHardenedAllocator: allocator-side hardening (quarantine,
	// canaries, poison/zero-on-free) with no hardware mechanism.
	HasHardenedAllocator bool
}

// registry holds one Descriptor per Scheme, indexed by the Scheme value.
// Order must match the constant block in instrument.go.
var registry = [numSchemes]Descriptor{
	Baseline: {
		Name:    "Baseline",
		Summary: "no security features",
	},
	Watchdog: {
		Name:              "Watchdog",
		Summary:           "hardware bounds+UAF checking via identifiers and check micro-ops [11]",
		HasWatchdogChecks: true,
	},
	PA: {
		Name:                    "PA",
		Summary:                 "PA-based code- and data-pointer integrity [21]",
		HasReturnAddressSigning: true,
		HasOnLoadAuth:           true,
	},
	AOS: {
		Name:              "AOS",
		Summary:           "always-on heap safety: PAC-signed data pointers, MCU-checked bounds",
		SignsDataPointers: true,
	},
	PAAOS: {
		Name:                    "PA+AOS",
		Aliases:                 []string{"PAAOS"},
		Summary:                 "AOS plus PA pointer integrity with autm on-load checks (§VII-B)",
		SignsDataPointers:       true,
		HasReturnAddressSigning: true,
		HasOnLoadAuth:           true,
		UsesAutm:                true,
	},
	MTE: {
		Name:              "MTE",
		Aliases:           []string{"MemTag"},
		Summary:           "4-bit lock-and-key memory tagging, 16 B granules, tag-check on access",
		UsesMemoryTagging: true,
	},
	HardenedAlloc: {
		Name:                 "HardenedAlloc",
		Aliases:              []string{"Hardened"},
		Summary:              "software hardened allocator: quarantine, canaries, poison/zero-on-free",
		HasHardenedAllocator: true,
	},
}
