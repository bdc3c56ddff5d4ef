package protoverify

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"aos/internal/attack"
	"aos/internal/instrument"
	"aos/internal/trace"
	"aos/internal/tracecheck"
)

// testK keeps the mutant/determinism runs fast. It must be >= 3 so the
// UAF path (alloc, free, access-freed) is reachable.
const testK = 4

// TestVerifyAllSchemes is the acceptance gate: every registered scheme's
// rewriter must emit contract-clean streams for every bounded program at
// the full default depth, and every expected contract rule must be
// exercised (no dead rules). A golden per scheme pins the enumeration's
// counts and per-rule coverage.
func TestVerifyAllSchemes(t *testing.T) {
	for _, s := range instrument.AllSchemes() {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			t.Parallel()
			rep, err := Verify(s, Options{K: DefaultK})
			if err != nil {
				t.Fatalf("Verify(%s): %v", s, err)
			}
			if rep.Programs == 0 {
				t.Fatalf("Verify(%s) enumerated no programs", s)
			}
			if rep.CE != nil {
				t.Fatalf("Verify(%s) found a counterexample:\n%s%v",
					s, attack.StepListing(rep.CE.Steps), rep.CE.Violations)
			}
			if len(rep.Dead) != 0 {
				t.Fatalf("Verify(%s): dead rules %v (coverage %v)", s, rep.Dead, rep.Coverage)
			}
			if !rep.OK() {
				t.Fatalf("Verify(%s): report not OK: %+v", s, rep)
			}
			checkGolden(t, "k6_"+s.String()+".txt", reportDigest(rep))
			// Rules outside the scheme's expectation must stay silent: a
			// baseline stream exercising TC02 would mean the rewriter leaks
			// signing ops into unsigned schemes.
			expected := make(map[string]bool, len(rep.Expected))
			for _, id := range rep.Expected {
				expected[id] = true
			}
			for _, id := range tracecheck.RuleIDs() {
				if !expected[id] && rep.Coverage[id] != 0 {
					t.Errorf("Verify(%s): unexpected rule %s exercised %d times",
						s, id, rep.Coverage[id])
				}
			}
		})
	}
}

// TestMutantsCaught seeds each registered defect into the AOS rewriter's
// output and asserts the contract rejects some bounded program, with the
// counterexample shrunk to at most two steps.
func TestMutantsCaught(t *testing.T) {
	for _, mu := range Mutants() {
		mu := mu
		t.Run(mu.Name, func(t *testing.T) {
			t.Parallel()
			rep, err := Verify(instrument.AOS, Options{K: testK, Mutate: mu.Wrap})
			if err != nil {
				t.Fatalf("Verify(AOS, %s): %v", mu.Name, err)
			}
			if rep.CE == nil {
				t.Fatalf("mutant %s survived: no counterexample at k=%d", mu.Name, testK)
			}
			if len(rep.CE.Violations) == 0 {
				t.Fatalf("mutant %s: counterexample with no violations", mu.Name)
			}
			if len(rep.CE.Steps) > 2 {
				t.Errorf("mutant %s: counterexample not minimal (%d steps > 2):\n%s",
					mu.Name, len(rep.CE.Steps), attack.StepListing(rep.CE.Steps))
			}
			if rep.CE.Insts == 0 {
				t.Errorf("mutant %s: counterexample judged no instructions", mu.Name)
			}
		})
	}
}

// TestDropXpacmMinimization pins the exact minimized counterexample for the
// canonical mutant: stripping the free-side xpacm must shrink to a single
// alloc/free lifecycle and blame the free protocol.
func TestDropXpacmMinimization(t *testing.T) {
	mu, ok := MutantByName("drop-xpacm")
	if !ok {
		t.Fatal("drop-xpacm mutant missing")
	}
	rep, err := Verify(instrument.AOS, Options{K: testK, Mutate: mu.Wrap})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CE == nil {
		t.Fatal("no counterexample")
	}
	want := []attack.Step{{Kind: attack.KAlloc, Size: allocSize}, {Kind: attack.KFree}}
	if !reflect.DeepEqual(rep.CE.Steps, want) {
		t.Fatalf("minimized steps:\n%swant:\n%s",
			attack.StepListing(rep.CE.Steps), attack.StepListing(want))
	}
	if rep.CE.OriginalLen != testK {
		t.Errorf("OriginalLen = %d, want %d", rep.CE.OriginalLen, testK)
	}
	if rule := rep.CE.Violations[0].Rule; rule != tracecheck.RuleFreeProtocol &&
		rule != tracecheck.RuleStreamEnd {
		t.Errorf("first violation rule = %s, want free-protocol or stream-end", rule)
	}
	if tracecheck.Explain(rep.CE.Violations[0].Rule) == "" {
		t.Errorf("no explanation for rule %s", rep.CE.Violations[0].Rule)
	}
}

// TestCounterexampleTraceReplays round-trips a counterexample through its
// trace and a fresh checker: the replayed stream must hold every judged
// instruction and reproduce the same first violation. This is the
// property that makes `aosverify -ce out.trace` + `aossim -replay
// out.trace` agree.
func TestCounterexampleTraceReplays(t *testing.T) {
	mu, _ := MutantByName("drop-xpacm")
	rep, err := Verify(instrument.AOS, Options{K: testK, Mutate: mu.Wrap})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CE == nil {
		t.Fatal("no counterexample")
	}

	var buf bytes.Buffer
	if err := WriteTrace(&buf, instrument.AOS, rep.CE.Steps, mu.Wrap); err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	chk := tracecheck.New(instrument.AOS)
	if n := trace.Replay(r, chk); n != rep.CE.Insts {
		t.Fatalf("replayed %d insts, counterexample judged %d", n, rep.CE.Insts)
	}
	chk.Finish()
	got := chk.Violations()
	if len(got) == 0 {
		t.Fatal("replayed counterexample trace produced no violations")
	}
	if got[0].Rule != rep.CE.Violations[0].Rule {
		t.Fatalf("replayed first violation rule = %s, want %s",
			got[0].Rule, rep.CE.Violations[0].Rule)
	}
}

// TestDeterminism: two identical runs must agree byte-for-byte on every
// reported quantity — the enumeration order is fixed, the machine is
// deterministic, and coverage is a pure fold.
func TestDeterminism(t *testing.T) {
	run := func() *Report {
		rep, err := Verify(instrument.AOS, Options{K: 3})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("non-deterministic reports:\n%+v\n%+v", a, b)
	}

	mu, _ := MutantByName("drop-xpacm")
	runMut := func() *Counterexample {
		rep, err := Verify(instrument.AOS, Options{K: testK, Mutate: mu.Wrap})
		if err != nil {
			t.Fatal(err)
		}
		if rep.CE == nil {
			t.Fatal("no counterexample")
		}
		return rep.CE
	}
	ca, cb := runMut(), runMut()
	if !reflect.DeepEqual(ca, cb) {
		t.Fatalf("non-deterministic counterexamples:\n%+v\n%+v", ca, cb)
	}
}

// TestForcedResize pins the single-event resize program: it must run clean
// and exercise the TC08 geometry rule (associativity transition observed).
func TestForcedResize(t *testing.T) {
	chk, _, err := check(instrument.AOS, render([]Event{EvResize}, nil), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if vs := chk.Violations(); len(vs) != 0 {
		t.Fatalf("resize program violated the contract: %v", vs)
	}
	if cov := chk.Coverage(); cov[tracecheck.RuleAssoc] == 0 {
		t.Fatalf("resize program did not exercise %s: %v", tracecheck.RuleAssoc, cov)
	}
}

// TestVerifyAllOrder pins that VerifyAll returns reports in registry order.
func TestVerifyAllOrder(t *testing.T) {
	reports, err := VerifyAll(Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	schemes := instrument.AllSchemes()
	if len(reports) != len(schemes) {
		t.Fatalf("got %d reports for %d schemes", len(reports), len(schemes))
	}
	for i, rep := range reports {
		if rep.Scheme != schemes[i] {
			t.Errorf("reports[%d].Scheme = %s, want %s", i, rep.Scheme, schemes[i])
		}
	}
}

// TestEventGrammar pins the abstract grammar itself.
func TestEventGrammar(t *testing.T) {
	cases := []struct {
		seq     []Event
		signing bool
		want    bool
	}{
		{[]Event{EvAlloc, EvFree, EvAccessFreed}, true, true},
		{[]Event{EvFree}, true, false},            // nothing live
		{[]Event{EvAccessFreed}, true, false},     // nothing dangling
		{[]Event{EvAlloc, EvRealloc}, true, true}, // realloc retires old ptr
		{[]Event{EvAlloc, EvRealloc, EvAccessFreed}, true, true},
		{[]Event{EvRet}, true, false},                  // underflow
		{[]Event{EvCall, EvCall, EvCall}, true, false}, // depth cap
		{[]Event{EvResize}, true, true},
		{[]Event{EvResize}, false, false},                 // resize only under signing
		{[]Event{EvAlloc, EvAlloc, EvAlloc}, true, false}, // live cap
	}
	for _, c := range cases {
		var st absState
		got := true
		for _, ev := range c.seq {
			if got = enabled(st, c.signing, ev); !got {
				break
			}
			st = apply(st, ev)
		}
		if got != c.want {
			t.Errorf("grammar accepts %v (signing=%v) = %v, want %v",
				c.seq, c.signing, got, c.want)
		}
	}
}

// reportDigest renders what a verification golden pins: the enumeration's
// counts and every rule's coverage.
func reportDigest(rep *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "programs=%d events=%d insts=%d\n", rep.Programs, rep.Events, rep.Insts)
	for _, id := range tracecheck.RuleIDs() {
		fmt.Fprintf(&b, "%s %d\n", id, rep.Coverage[id])
	}
	return b.String()
}

// checkGolden compares got with testdata/name. Regenerate with
// AOS_UPDATE_GOLDEN=1 only when an output change is intended.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("AOS_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with AOS_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from its golden:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
