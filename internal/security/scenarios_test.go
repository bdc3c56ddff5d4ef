package security_test

import (
	"testing"

	"aos/internal/attack"
	"aos/internal/instrument"
)

// These tests pin each scheme's outcome on the paper's §VII scenarios,
// mounted through the attack harness. The heap scenarios are also graded
// against Expected on every mount, so a run that contradicts the model
// fails here before any assertion reads it.

// outcomes mounts every scenario under every registered scheme, indexed
// by scenario name.
func outcomes(t *testing.T) map[string]map[instrument.Scheme]attack.Outcome {
	t.Helper()
	m := map[string]map[instrument.Scheme]attack.Outcome{}
	for _, sc := range attack.Scenarios() {
		m[sc.Name] = map[instrument.Scheme]attack.Outcome{}
		for _, s := range instrument.AllSchemes() {
			out, err := sc.Mount(s)
			if err != nil {
				t.Fatalf("%s under %v: %v", sc.Name, s, err)
			}
			m[sc.Name][s] = out
		}
	}
	return m
}

func TestMatrixShape(t *testing.T) {
	m := outcomes(t)
	if len(m) != len(attack.Scenarios()) {
		t.Fatalf("rows = %d, want %d", len(m), len(attack.Scenarios()))
	}
	for name, out := range m {
		if len(out) != len(instrument.AllSchemes()) {
			t.Errorf("%s: %d outcomes, want %d", name, len(out), len(instrument.AllSchemes()))
		}
	}
}

func TestAOSDetectsEverythingApplicable(t *testing.T) {
	// §VII: AOS provides complete spatial and temporal heap safety. Under
	// PA+AOS, every §VII scenario must be caught.
	m := outcomes(t)
	for name, out := range m {
		if got := out[instrument.PAAOS]; got == attack.Undetected {
			t.Errorf("PA+AOS missed %q", name)
		}
	}
	// Plain AOS catches everything except the return-address scenario
	// (pointer integrity is the PA extension) and AHC forging is caught
	// only by autm.
	for name, out := range m {
		switch name {
		case "return-address corruption (ROP)":
			if out[instrument.AOS] != attack.NotApplicable {
				t.Errorf("AOS on ROP = %v, want n/a", out[instrument.AOS])
			}
		case "AHC forging (strip AHC, keep address)":
			if out[instrument.AOS] != attack.Undetected {
				t.Errorf("AOS without autm on AHC forging = %v; the paper's §VII-C defense needs autm", out[instrument.AOS])
			}
		default:
			if out[instrument.AOS] != attack.Detected {
				t.Errorf("AOS missed %q", name)
			}
		}
	}
}

func TestBaselineDetectsNothing(t *testing.T) {
	m := outcomes(t)
	for name, out := range m {
		got := out[instrument.Baseline]
		if got == attack.Detected {
			t.Errorf("baseline 'detected' %q; it has no mechanism", name)
		}
	}
}

func TestWatchdogCoverage(t *testing.T) {
	// Watchdog catches spatial and temporal violations through identifiers
	// and bounds, but not the crafted-free data-oriented attack (its
	// check micro-ops guard dereferences, not free()).
	m := outcomes(t)
	mustDetect := []string{
		"heap OOB read (adjacent)",
		"heap OOB write (adjacent)",
		"non-adjacent OOB (jumps redzones)",
		"use-after-free read",
		"dangling pointer into reused memory",
	}
	for _, name := range mustDetect {
		if m[name][instrument.Watchdog] != attack.Detected {
			t.Errorf("Watchdog missed %q", name)
		}
	}
	if m["House of Spirit (crafted free)"][instrument.Watchdog] == attack.Detected {
		t.Log("note: Watchdog detected House of Spirit (stricter than modeled expectation)")
	}
}

func TestPACatchesROPOnly(t *testing.T) {
	m := outcomes(t)
	if m["return-address corruption (ROP)"][instrument.PA] != attack.Detected {
		t.Error("PA missed return-address corruption")
	}
	if m["heap OOB read (adjacent)"][instrument.PA] == attack.Detected {
		t.Error("PA 'detected' an OOB read; it provides integrity, not bounds (§II-B)")
	}
}

func TestNonAdjacentVsBlacklisting(t *testing.T) {
	// The paper's core argument against trip-wire schemes: non-adjacent
	// accesses jump over redzones. Whitelisting (AOS) must catch them.
	m := outcomes(t)
	if m["non-adjacent OOB (jumps redzones)"][instrument.AOS] != attack.Detected {
		t.Error("AOS missed a non-adjacent OOB")
	}
}

func TestMTECoverage(t *testing.T) {
	// MTE's lock-and-key tagging catches every granule-crossing spatial
	// violation and every temporal one among the scenarios: freed granules
	// are retagged to 0, so stale pointers and second frees both mismatch.
	m := outcomes(t)
	mustDetect := []string{
		"heap OOB read (adjacent)",
		"heap OOB write (adjacent)",
		"non-adjacent OOB (jumps redzones)",
		"use-after-free read",
		"dangling pointer into reused memory",
		"double free (tcache-key bypass)",
		"heap metadata corruption via overflow",
	}
	for _, name := range mustDetect {
		if m[name][instrument.MTE] != attack.Detected {
			t.Errorf("MTE missed %q", name)
		}
	}
	// The crafted chunk lives in untagged (tag-0) memory and the forged
	// pointer carries tag 0: the tags agree, so the free sails through.
	if m["House of Spirit (crafted free)"][instrument.MTE] != attack.Undetected {
		t.Errorf("MTE on House of Spirit = %v, want undetected",
			m["House of Spirit (crafted free)"][instrument.MTE])
	}
	// No pointer signing, no return-address signing.
	for _, name := range []string{
		"AHC forging (strip AHC, keep address)",
		"return-address corruption (ROP)",
	} {
		if m[name][instrument.MTE] != attack.NotApplicable {
			t.Errorf("MTE on %q = %v, want n/a", name, m[name][instrument.MTE])
		}
	}
}

func TestHardenedAllocCoverage(t *testing.T) {
	// The software-hardened allocator guards its own entry points, not
	// dereferences: the quarantine catches the double free, ownership
	// validation rejects the crafted chunk, and everything that never
	// calls back into the allocator stays invisible.
	m := outcomes(t)
	for _, name := range []string{
		"double free (tcache-key bypass)",
		"House of Spirit (crafted free)",
	} {
		if m[name][instrument.HardenedAlloc] != attack.Detected {
			t.Errorf("HardenedAlloc missed %q", name)
		}
	}
	for _, name := range []string{
		"heap OOB read (adjacent)",
		"non-adjacent OOB (jumps redzones)",
		"use-after-free read",
		"dangling pointer into reused memory",
	} {
		if m[name][instrument.HardenedAlloc] != attack.Undetected {
			t.Errorf("HardenedAlloc on %q = %v, want undetected (no dereference checks)",
				name, m[name][instrument.HardenedAlloc])
		}
	}
	for _, name := range []string{
		"AHC forging (strip AHC, keep address)",
		"return-address corruption (ROP)",
	} {
		if m[name][instrument.HardenedAlloc] != attack.NotApplicable {
			t.Errorf("HardenedAlloc on %q = %v, want n/a", name, m[name][instrument.HardenedAlloc])
		}
	}
}
