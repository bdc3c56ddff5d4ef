package experiments

import (
	"reflect"
	"sync"
	"testing"

	"aos/internal/core"
	"aos/internal/instrument"
)

// refOptions is the plain reference matrix's configuration: a tiny budget,
// and more than one worker so the -j 1 comparison against it still
// exercises the worker-count contract.
func refOptions() Options { return Options{Instructions: 8_000, Seed: 1, Workers: 4} }

var (
	refOnce sync.Once
	ref     *Matrix
	refErr  error
)

// refMatrix is the plain reference matrix, computed once per test binary
// and shared by the batching, telemetry and worker-count equivalence
// tests. Callers must not mutate it.
func refMatrix(t *testing.T) *Matrix {
	t.Helper()
	refOnce.Do(func() { ref, refErr = RunMatrix(refOptions()) })
	if refErr != nil {
		t.Fatal(refErr)
	}
	return ref
}

// TestMatrixBatchScalarEquivalence is the batching determinism contract:
// the buffered emission path (machine-side EmitBatch) must produce a Matrix
// — and byte-identical rendered figures — indistinguishable from per-
// instruction scalar emission.
func TestMatrixBatchScalarEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("two matrix runs")
	}
	batched := refMatrix(t)
	emitBatch = 1
	defer func() { emitBatch = core.EmitBatchSize }()
	scalar, err := RunMatrix(refOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scalar.Runs, batched.Runs) {
		for _, b := range scalar.Benchmarks {
			for _, s := range instrument.Schemes() {
				if !reflect.DeepEqual(scalar.Runs[b][s], batched.Runs[b][s]) {
					t.Errorf("%s/%v diverges:\n  scalar:  %+v\n  batched: %+v",
						b, s, scalar.Runs[b][s], batched.Runs[b][s])
				}
			}
		}
		t.Fatal("matrix contents differ between scalar and batched emission")
	}
	f14s, err := Fig14(scalar)
	if err != nil {
		t.Fatal(err)
	}
	f14b, err := Fig14(batched)
	if err != nil {
		t.Fatal(err)
	}
	if f14s.String() != f14b.String() {
		t.Error("rendered Fig 14 differs between scalar and batched emission")
	}
	f18s, _ := Fig18(scalar)
	f18b, _ := Fig18(batched)
	if f18s.CSV() != f18b.CSV() {
		t.Error("Fig 18 CSV differs between scalar and batched emission")
	}
}
