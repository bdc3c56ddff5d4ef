package attack

import (
	"testing"

	"aos/internal/instrument"
)

// scenario returns the named §VII scenario.
func scenario(t *testing.T, name string) Scenario {
	t.Helper()
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc
		}
	}
	t.Fatalf("no scenario %q", name)
	return Scenario{}
}

// TestScenarioProgramsValidate: every heap scenario is a well-formed
// program of its class, held to the same predicate as generated ones.
func TestScenarioProgramsValidate(t *testing.T) {
	heap := 0
	for _, sc := range Scenarios() {
		if sc.Program == nil {
			continue
		}
		heap++
		if err := sc.Program.Validate(); err != nil {
			t.Errorf("%s: %v\n%s", sc.Name, err, sc.Program.Listing())
		}
	}
	if heap != 8 {
		t.Errorf("%d heap scenarios, want 8", heap)
	}
}

// TestHouseOfSpiritReturnsCraftedChunk: under Baseline the crafted free
// goes through and the victim malloc hands the attacker's fake chunk back
// (Fig 1), so the scenario's undetected cell is a real compromise.
func TestHouseOfSpiritReturnsCraftedChunk(t *testing.T) {
	sc := scenario(t, "House of Spirit (crafted free)")
	res, ptrs, err := runSink(sc.Program, instrument.Baseline, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("Baseline detected the crafted free: %v", res.Err)
	}
	if len(ptrs) != 1 || ptrs[0].VA() != 0x1000_0010 {
		t.Fatalf("victim malloc returned %v, want the crafted chunk 0x10000010", ptrs)
	}
}
