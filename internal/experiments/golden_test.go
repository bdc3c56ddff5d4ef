package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// checkGolden compares got with testdata/name byte for byte. With
// AOS_UPDATE_GOLDEN set it first rewrites the file.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if os.Getenv("AOS_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with AOS_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("output drifted from golden %s:\n%s", golden, got)
	}
}

// TestNormalizedTableGoldens pins the rendered normalized tables byte for
// byte: Fig 14 and Fig 18 over the reference matrix, as text and CSV, and
// the design-choice ablations at the reference budget. Regenerate with
// AOS_UPDATE_GOLDEN=1.
func TestNormalizedTableGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run")
	}
	m := refMatrix(t)
	f14, err := Fig14(m)
	if err != nil {
		t.Fatal(err)
	}
	f18, err := Fig18(m)
	if err != nil {
		t.Fatal(err)
	}
	abl, err := Ablations(Options{Instructions: 8_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig14_ref.txt", f14.String())
	checkGolden(t, "fig14_ref.csv", f14.CSV())
	checkGolden(t, "fig18_ref.txt", f18.String())
	checkGolden(t, "fig18_ref.csv", f18.CSV())
	checkGolden(t, "ablate_8k.txt", abl.String())
}

// TestSecurityMatrixGolden pins the §VII detection matrix byte for byte.
// Regenerate with AOS_UPDATE_GOLDEN=1.
func TestSecurityMatrixGolden(t *testing.T) {
	out, err := SecurityMatrix()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "security.txt", out)
}
