package experiments

import (
	"context"
	"strings"
	"testing"

	"aos/internal/attack"
	"aos/internal/instrument"
	"aos/internal/security"
)

// TestAttackSpecCanonical pins the canonical encoding and hash: these are
// cache addresses shared between aosbench and aosd across processes and
// releases, so drift silently orphans every cached cell.
func TestAttackSpecCanonical(t *testing.T) {
	spec, err := AttackSpec{Scheme: "aos", Class: "Linear-Overflow"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	wantCanon := `{"class":"linear-overflow","programs":48,"scheme":"AOS","seed":1}`
	if got := string(spec.Canonical()); got != wantCanon {
		t.Fatalf("canonical = %s, want %s", got, wantCanon)
	}
	explicit, err := AttackSpec{Scheme: "AOS", Class: "linear-overflow", Programs: 48, Seed: 1}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Hash() != explicit.Hash() {
		t.Fatal("elided and explicit defaults must share a cache address")
	}
}

func TestAttackSpecNormalizeRejects(t *testing.T) {
	if _, err := (AttackSpec{Scheme: "AOS", Class: "nope"}).Normalize(); err == nil {
		t.Fatal("unknown class accepted")
	}
	if _, err := (AttackSpec{Scheme: "nope", Class: "uaf-read"}).Normalize(); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if _, err := (AttackSpec{Scheme: "AOS", Class: "uaf-read", Programs: -1}).Normalize(); err == nil {
		t.Fatal("negative sample size accepted")
	}
}

// TestRunAttackSpecDeterministic: a cell's JSON — the cached bytes — is a
// pure function of the normalized spec.
func TestRunAttackSpecDeterministic(t *testing.T) {
	spec := AttackSpec{Scheme: "MTE", Class: "double-free", Programs: 16, Seed: 3}
	a, err := RunAttackSpec(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunAttackSpec(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := a.JSON()
	bj, _ := b.JSON()
	if string(aj) != string(bj) {
		t.Fatalf("cell not deterministic:\n%s\n%s", aj, bj)
	}
	if n := a.Detected + a.Bypassed + a.Escaped; n != 16 {
		t.Fatalf("counts sum to %d, want 16", n)
	}
}

// TestAttackMatrixGolden pins the seed-1 matrix render byte-for-byte and
// asserts worker-count independence: -j1 and -j8 must produce identical
// bytes (the acceptance criterion for the whole experiment). Regenerate
// with AOS_UPDATE_GOLDEN=1.
func TestAttackMatrixGolden(t *testing.T) {
	j1, err := AttackMatrix(Options{Workers: 1}, 24, 1)
	if err != nil {
		t.Fatal(err)
	}
	j8, err := AttackMatrix(Options{Workers: 8}, 24, 1)
	if err != nil {
		t.Fatal(err)
	}
	if j1.String() != j8.String() {
		t.Fatalf("matrix differs across worker counts:\n%s\n%s", j1, j8)
	}
	d1, _ := j1.Document().JSON()
	d8, _ := j8.Document().JSON()
	if string(d1) != string(d8) {
		t.Fatal("matrix JSON differs across worker counts")
	}

	checkGolden(t, "attacks_seed1.txt", j1.String())
}

// TestAttackMatrixModelShape: deterministic cells grade 100% or 0%
// detected with nothing in between, and the table mentions every scheme
// and class.
func TestAttackMatrixModelShape(t *testing.T) {
	res, err := AttackMatrix(Options{Workers: 4}, 24, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != len(instrument.AllSchemes())*len(security.Classes()) {
		t.Fatalf("got %d cells", len(res.Cells))
	}
	for _, cell := range res.Cells {
		n := cell.Detected + cell.Bypassed + cell.Escaped
		switch cell.Expected {
		case security.Deterministic.String():
			if cell.Detected != n {
				t.Errorf("%s/%s: deterministic cell detected %d/%d", cell.Spec.Scheme, cell.Spec.Class, cell.Detected, n)
			}
		case security.Never.String():
			if cell.Escaped != n {
				t.Errorf("%s/%s: never cell escaped %d/%d", cell.Spec.Scheme, cell.Spec.Class, cell.Escaped, n)
			}
		}
	}
	out := res.String()
	for _, s := range instrument.AllSchemes() {
		if !strings.Contains(out, s.String()) {
			t.Errorf("render missing scheme %s", s)
		}
	}
	for _, c := range security.Classes() {
		if !strings.Contains(out, c.String()) {
			t.Errorf("render missing class %s", c)
		}
	}
}

// TestSecurityMatrixFailsOnModelViolation: a §VII scenario whose run
// contradicts the detection model fails the whole matrix, naming the
// scenario and carrying its listing. Labelled double-free, the adjacent
// OOB read is a PHANTOM under Watchdog, which detects it although the
// model promises Watchdog never catches a double free.
func TestSecurityMatrixFailsOnModelViolation(t *testing.T) {
	sc := attack.Scenarios()[0]
	prog := *sc.Program
	prog.Class = security.DoubleFree
	sc.Program = &prog
	_, err := securityMatrix([]attack.Scenario{sc})
	if err == nil {
		t.Fatal("mislabelled scenario passed the matrix")
	}
	for _, want := range []string{sc.Name, "under Watchdog", "PHANTOM", "attack double-free"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error missing %q:\n%v", want, err)
		}
	}
}
