package attack

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aos/internal/instrument"
	"aos/internal/security"
	"aos/internal/trace"
	"aos/internal/tracecheck"
)

// TestGenerateValid: every (class, seed) draw is structurally well-formed
// and a pure function of its inputs.
func TestGenerateValid(t *testing.T) {
	for _, class := range security.Classes() {
		for seed := uint64(0); seed < 200; seed++ {
			p, err := Generate(class, mixSeed(1, int(class), int(seed)))
			if err != nil {
				t.Fatalf("%v seed %d: %v", class, seed, err)
			}
			q, err := Generate(class, p.Seed)
			if err != nil {
				t.Fatalf("%v regenerate: %v", class, err)
			}
			if p.Listing() != q.Listing() {
				t.Fatalf("%v seed %d: generation is not a pure function of the seed", class, seed)
			}
		}
	}
}

// runChecked grades p under every scheme with the scheme's tracecheck
// contract teed into each run: a harness failure or any contract
// violation fails the test, so every attack stream is protocol-checked.
func runChecked(t *testing.T, p *Program) []Result {
	t.Helper()
	var results []Result
	for _, s := range instrument.AllSchemes() {
		chk := tracecheck.New(s)
		r, _, err := runSink(p, s, chk)
		if err != nil {
			t.Fatalf("harness failure under %v: %v\n%s", s, err, p.Listing())
		}
		if vs := chk.Finish(); len(vs) > 0 {
			t.Fatalf("%v stream violates the contract: %v\n%s", s, vs[0], p.Listing())
		}
		results = append(results, r)
	}
	return results
}

// TestDetectionMatrixModel is the harness's core soundness property: over
// a broad sample, no run under any scheme ever contradicts the documented
// model (a MISSED deterministic detection or a PHANTOM detection where
// the model promises none), no benign step ever errors, and every
// emitted stream meets the scheme's tracecheck contract.
func TestDetectionMatrixModel(t *testing.T) {
	for _, class := range security.Classes() {
		for i := 0; i < 60; i++ {
			p, err := Generate(class, mixSeed(1, int(class), i))
			if err != nil {
				t.Fatalf("%v program %d: %v", class, i, err)
			}
			for _, r := range runChecked(t, p) {
				if r.Verdict.Violation() {
					t.Errorf("%v program %d under %v: %v (expected %v, err=%v)\n%s",
						class, i, r.Scheme, r.Verdict, r.Expected, r.Err, p.Listing())
				}
			}
		}
	}
}

// TestProbabilisticCellsSampleBothOutcomes: every cell the model calls
// probabilistic actually exercises both sides of its bypass window within
// the sampled seed range — otherwise "probabilistic" would be an untested
// claim and the matrix a constant.
func TestProbabilisticCellsSampleBothOutcomes(t *testing.T) {
	type cell struct {
		s instrument.Scheme
		c security.Class
	}
	detected := map[cell]int{}
	bypassed := map[cell]int{}
	for _, class := range security.Classes() {
		for i := 0; i < 120; i++ {
			p, err := Generate(class, mixSeed(1, int(class), i))
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range instrument.AllSchemes() {
				if security.Expected(s, class) != security.Probabilistic {
					continue
				}
				r, err := Run(p, s)
				if err != nil {
					t.Fatal(err)
				}
				switch r.Verdict {
				case VerdictDetected:
					detected[cell{s, class}]++
				case VerdictBypassed:
					bypassed[cell{s, class}]++
				}
			}
		}
	}
	for _, class := range security.Classes() {
		for _, s := range instrument.AllSchemes() {
			if security.Expected(s, class) != security.Probabilistic {
				continue
			}
			k := cell{s, class}
			if detected[k] == 0 || bypassed[k] == 0 {
				t.Errorf("probabilistic cell (%v, %v): detected=%d bypassed=%d — one side never sampled",
					s, class, detected[k], bypassed[k])
			}
		}
	}
}

// TestRunDeterminism: the same program graded twice gives the identical
// result (the machine has no hidden nondeterminism the harness can see).
func TestRunDeterminism(t *testing.T) {
	for _, class := range security.Classes() {
		p, err := Generate(class, mixSeed(7, int(class), 3))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range instrument.AllSchemes() {
			a, err := Run(p, s)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(p, s)
			if err != nil {
				t.Fatal(err)
			}
			if a.Verdict != b.Verdict || a.DetectedAt != b.DetectedAt {
				t.Errorf("(%v, %v): run not deterministic: %v@%d vs %v@%d",
					s, class, a.Verdict, a.DetectedAt, b.Verdict, b.DetectedAt)
			}
		}
	}
}

// TestGoldenListings pins the seed-1 program listings byte-for-byte: the
// generator's output is part of the reproducibility contract. Regenerate
// with AOS_UPDATE_GOLDEN=1 go test ./internal/attack -run Golden.
func TestGoldenListings(t *testing.T) {
	var b strings.Builder
	for _, class := range security.Classes() {
		for i := 0; i < 3; i++ {
			p, err := Generate(class, mixSeed(1, int(class), i))
			if err != nil {
				t.Fatal(err)
			}
			b.WriteString(p.Listing())
			b.WriteString("\n")
		}
	}
	golden := filepath.Join("testdata", "listings_seed1.txt")
	if os.Getenv("AOS_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with AOS_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if b.String() != string(want) {
		t.Errorf("seed-1 listings drifted from golden %s", golden)
	}
}

// findOutcome scans programs of a class under a scheme for a verdict.
func findOutcome(t *testing.T, class security.Class, s instrument.Scheme, want Verdict) *Program {
	t.Helper()
	for i := 0; i < 300; i++ {
		p, err := Generate(class, mixSeed(1, int(class), i))
		if err != nil {
			t.Fatal(err)
		}
		r, err := Run(p, s)
		if err != nil {
			t.Fatal(err)
		}
		if r.Verdict == want {
			return p
		}
	}
	t.Fatalf("no %v outcome for (%v, %v) in 300 programs", want, s, class)
	return nil
}

// keepVerdict is an attack minimization's predicate: the candidate is
// still a well-formed attack (exactly one attack step) and still grades v
// under s.
func keepVerdict(s instrument.Scheme, v Verdict) func(*Program) bool {
	return func(q *Program) bool {
		if q.Validate() != nil {
			return false
		}
		r, err := Run(q, s)
		return err == nil && r.Verdict == v
	}
}

// TestMinimize: an escaped program minimizes to a smaller program that
// still validates and still escapes, and the minimization keeps the
// attack step. A golden pins the minimized listing of every bypass and
// escape among the seed-1 golden programs, so a change in deletion order
// shows.
func TestMinimize(t *testing.T) {
	p := findOutcome(t, security.UAFWrite, instrument.Baseline, VerdictEscaped)
	escapes := keepVerdict(instrument.Baseline, VerdictEscaped)
	min := Minimize(p, escapes)
	if err := min.Validate(); err != nil {
		t.Fatalf("minimized program invalid: %v\n%s", err, min.Listing())
	}
	if !escapes(min) {
		t.Fatalf("minimized program no longer escapes:\n%s", min.Listing())
	}
	if len(min.Steps) > len(p.Steps) {
		t.Fatalf("minimization grew the program: %d -> %d", len(p.Steps), len(min.Steps))
	}
	// A UAF needs at least alloc + free + stale access.
	if len(min.Steps) != 3 {
		t.Errorf("UAF under Baseline should minimize to 3 steps, got %d:\n%s",
			len(min.Steps), min.Listing())
	}

	var b strings.Builder
	for _, class := range security.Classes() {
		for i := 0; i < 3; i++ {
			p, err := Generate(class, MixSeed(1, class, i))
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range instrument.AllSchemes() {
				r, err := Run(p, s)
				if err != nil {
					t.Fatal(err)
				}
				if r.Verdict == VerdictBypassed || r.Verdict == VerdictEscaped {
					min := Minimize(p, keepVerdict(s, r.Verdict))
					fmt.Fprintf(&b, "%v under %v:\n%s\n", r.Verdict, s, min.Listing())
				}
			}
		}
	}
	golden := filepath.Join("testdata", "minimized_seed1.txt")
	if os.Getenv("AOS_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with AOS_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if b.String() != string(want) {
		t.Errorf("seed-1 minimized listings drifted from golden %s", golden)
	}
}

// TestEscapeTraceReplays: an escape's trace is a valid, protocol-clean
// instruction stream — it decodes, replays to the same count, and passes
// the scheme's tracecheck contract (aossim -replay runs it by default).
func TestEscapeTraceReplays(t *testing.T) {
	cases := []struct {
		s instrument.Scheme
		c security.Class
		v Verdict
	}{
		{instrument.Baseline, security.UAFWrite, VerdictEscaped},
		{instrument.HardenedAlloc, security.LinearOverflow, VerdictBypassed},
		{instrument.MTE, security.OffByOne, VerdictBypassed},
		{instrument.AOS, security.DoubleFree, VerdictBypassed},
		{instrument.PAAOS, security.UAFRead, VerdictBypassed},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%v_%v", tc.s, tc.c), func(t *testing.T) {
			p := findOutcome(t, tc.c, tc.s, tc.v)
			var buf bytes.Buffer
			res, err := WriteTrace(p, tc.s, &buf)
			if err != nil {
				t.Fatal(err)
			}
			if res.Verdict != tc.v {
				t.Fatalf("traced run verdict %v, want %v", res.Verdict, tc.v)
			}
			r, err := trace.NewReader(&buf)
			if err != nil {
				t.Fatal(err)
			}
			ck := tracecheck.New(tc.s)
			n := trace.Replay(r, ck)
			if r.Err() != nil {
				t.Fatalf("trace truncated: %v", r.Err())
			}
			if n == 0 {
				t.Fatal("empty trace")
			}
			if vs := ck.Finish(); len(vs) > 0 {
				t.Fatalf("escape trace violates the %v contract: %v", tc.s, vs[0])
			}
		})
	}
}

// FuzzAttackPrograms: arbitrary (class, seed) pairs must generate valid
// programs whose runs never crash the simulator, never err on benign
// steps, never emit a stream the scheme's contract rejects, and never
// contradict a deterministic model promise — in particular AOS can never
// miss a linear overflow. Escapes must minimize to a program that still
// validates.
func FuzzAttackPrograms(f *testing.F) {
	f.Add(uint8(0), uint64(1))
	f.Add(uint8(2), uint64(42))
	f.Add(uint8(4), uint64(7))
	f.Add(uint8(7), uint64(123456789))
	f.Fuzz(func(t *testing.T, classByte uint8, seed uint64) {
		class := security.Class(int(classByte) % len(security.Classes()))
		p, err := Generate(class, seed)
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("invalid program: %v", err)
		}
		for _, r := range runChecked(t, p) {
			if r.Verdict.Violation() {
				t.Fatalf("model violation under %v: %v (expected %v)\n%s",
					r.Scheme, r.Verdict, r.Expected, p.Listing())
			}
			if r.Scheme == instrument.AOS && class == security.LinearOverflow &&
				r.Verdict != VerdictDetected {
				t.Fatalf("AOS missed a linear overflow\n%s", p.Listing())
			}
			if r.Verdict == VerdictEscaped || r.Verdict == VerdictBypassed {
				min := Minimize(p, keepVerdict(r.Scheme, r.Verdict))
				if err := min.Validate(); err != nil {
					t.Fatalf("minimized escape invalid under %v: %v", r.Scheme, err)
				}
			}
		}
	})
}
