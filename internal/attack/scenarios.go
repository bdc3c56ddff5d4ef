package attack

import (
	"fmt"

	"aos/internal/core"
	"aos/internal/instrument"
	"aos/internal/pa"
	"aos/internal/security"
)

// Outcome is one scenario's cell in the §VII security matrix.
type Outcome string

// Scenario outcomes.
const (
	// Undetected means the attack's illegal operation completed silently.
	Undetected Outcome = "undetected"
	// Detected means the scheme raised a violation before damage was done.
	Detected Outcome = "DETECTED"
	// NotApplicable means the scenario attacks a mechanism the scheme
	// lacks (e.g. AHC forging without pointer signing).
	NotApplicable Outcome = "n/a"
)

// outcome reads a scenario's attack step: any violation is a detection.
func outcome(violation error) Outcome {
	if violation != nil {
		return Detected
	}
	return Undetected
}

// Scenario is one attack of the paper's security analysis (§VII). A heap
// scenario is a fixed Program, rendered and graded by Run like every
// generated program. The two scenarios the step grammar cannot express,
// because they operate the pointer-signing unit, drive the machine
// directly and have no attack class.
type Scenario struct {
	// Name identifies the scenario.
	Name string
	// Paper cites where the paper discusses it.
	Paper string
	// Program is a heap scenario's attack (nil for the bespoke two).
	Program *Program
	// bespoke mounts a non-heap scenario on a fresh machine.
	bespoke func(m *core.Machine) (Outcome, error)
}

func heapScenario(name, paper string, class security.Class, steps ...Step) Scenario {
	return Scenario{Name: name, Paper: paper, Program: &Program{Class: class, Steps: steps}}
}

// Scenarios returns the §VII analysis in matrix row order: spatial and
// temporal heap violations (Fig 12), the House-of-Spirit data-oriented
// attack (Fig 1), heap metadata corruption, AHC forging (§VII-C) and
// return-address corruption (§VII-B).
func Scenarios() []Scenario {
	return []Scenario{
		heapScenario("heap OOB read (adjacent)", "Fig 12 line 6", security.LinearOverflow,
			Step{Kind: KAlloc, Size: 80},
			Step{Kind: KLoad, Off: 88, Attack: true}),
		heapScenario("heap OOB write (adjacent)", "Fig 12 line 7", security.LinearOverflow,
			Step{Kind: KAlloc, Size: 80},
			Step{Kind: KStore, Off: 88, Val: attackPattern, Attack: true}),
		// p1 starts 80 bytes past p0 on the default heap (96 under the
		// hardened allocator's canary slack, which checks no loads): the
		// offset reaches 4 KiB beyond p1, past any redzone a blacklisting
		// scheme would place around either object.
		heapScenario("non-adjacent OOB (jumps redzones)", "§I: >60% of spatial violations since 2014", security.LinearOverflow,
			Step{Kind: KAlloc, Size: 64},
			Step{Kind: KAlloc, Slot: 1, Size: 64},
			Step{Kind: KLoad, Off: 80 + 4096, Attack: true}),
		heapScenario("use-after-free read", "Fig 12 line 14", security.UAFRead,
			Step{Kind: KAlloc, Size: 64},
			Step{Kind: KFree},
			Step{Kind: KLoad, Attack: true}),
		// A new owner takes part of the freed memory; the stale pointer
		// reaches beyond the new owner's object.
		heapScenario("dangling pointer into reused memory", "§III: temporal safety", security.UAFWrite,
			Step{Kind: KAlloc, Size: 8192},
			Step{Kind: KFree},
			Step{Kind: KAlloc, Slot: 1, Size: 4096},
			Step{Kind: KStore, Off: 4096 + 64, Val: attackPattern, Attack: true}),
		// The classic glibc bypass: scribbling over the freed chunk's
		// tcache key defeats the allocator's own double-free heuristic, so
		// only an external mechanism (AOS's bndclr, MTE's retagging, the
		// hardened quarantine) still catches the second free.
		heapScenario("double free (tcache-key bypass)", "Fig 12 lines 16-19, §VII-D", security.DoubleFree,
			Step{Kind: KAlloc, Size: 64},
			Step{Kind: KFree},
			Step{Kind: KScribble, Off: 8},
			Step{Kind: KFree, Attack: true}),
		// When the crafted free goes through, the victim malloc hands the
		// attacker's fake chunk back to the program.
		heapScenario("House of Spirit (crafted free)", "Fig 1, §VII-A", security.FakeFree,
			Step{Kind: KCraftFake, Addr: 0x1000_0000, Size: 0x40},
			Step{Kind: KFakeFree, Addr: 0x1000_0000, Attack: true},
			Step{Kind: KAlloc, Size: 0x30}),
		heapScenario("heap metadata corruption via overflow", "§VII-D: heap metadata protection", security.MetadataCorruption,
			Step{Kind: KAlloc, Size: 64},
			Step{Kind: KAlloc, Slot: 1, Size: 64},
			Step{Kind: KHeaderStore, Val: attackPattern, Attack: true}),
		{Name: "AHC forging (strip AHC, keep address)", Paper: "§VII-C", bespoke: forgeAHC},
		{Name: "return-address corruption (ROP)", Paper: "§VII-B, Fig 3", bespoke: corruptReturnAddress},
	}
}

// Mount runs the scenario under scheme s on a fresh machine. A heap
// scenario whose run contradicts the detection model (a MISSED or PHANTOM
// verdict) is an error carrying its listing, as for a generated program.
func (sc Scenario) Mount(s instrument.Scheme) (Outcome, error) {
	if sc.Program == nil {
		m, err := core.New(core.Config{Scheme: s})
		if err != nil {
			return Undetected, err
		}
		return sc.bespoke(m)
	}
	r, err := Run(sc.Program, s)
	if err != nil {
		return Undetected, err
	}
	if r.Verdict.Violation() {
		return Undetected, fmt.Errorf("model violation %v (expected %v)\n%s",
			r.Verdict, r.Expected, sc.Program.Listing())
	}
	return outcome(r.Err), nil
}

// forgeAHC strips a signed pointer's AHC and keeps its address (§VII-C).
func forgeAHC(m *core.Machine) (Outcome, error) {
	if !m.Scheme.SignsDataPointers() {
		return NotApplicable, nil
	}
	p, err := m.Malloc(64)
	if err != nil {
		return Undetected, err
	}
	forged := core.Ptr{Raw: p.Raw &^ pa.AHCMask}
	if !m.Scheme.UsesAutm() {
		// Without autm, a zero-AHC pointer simply skips bounds checking:
		// the forge succeeds.
		return outcome(m.Load(forged, 4096, core.AccessOpts{})), nil
	}
	return outcome(m.AutM(forged)), nil
}

// corruptReturnAddress signs a return address, redirects it as an
// attacker would, and authenticates it (§VII-B).
func corruptReturnAddress(m *core.Machine) (Outcome, error) {
	if !m.Scheme.HasReturnAddressSigning() {
		return NotApplicable, nil
	}
	const ret, sp = 0x40_1000, 0x3FFF_FFFE_0000
	signed := m.PAUnit.SignCode(pa.KeyIA, ret, sp)
	_, err := m.PAUnit.AuthCode(pa.KeyIA, signed^0x40, sp)
	return outcome(err), nil
}
