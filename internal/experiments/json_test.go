package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"aos/internal/instrument"
	"aos/internal/workload"
)

// TestSimSpecCanonical pins the canonical encoding byte-for-byte. This
// string is the cache-key preimage: changing it silently invalidates every
// cached result, so any change here must be deliberate.
func TestSimSpecCanonical(t *testing.T) {
	spec := SimSpec{Benchmark: "gcc", Scheme: "PA+AOS", Instructions: 50_000, Seed: 7, Sanitize: true}
	want := `{"benchmark":"gcc","instructions":50000,"sanitize":true,"scheme":"PA+AOS","seed":7}`
	if got := string(spec.Canonical()); got != want {
		t.Fatalf("canonical encoding drifted:\n got %s\nwant %s", got, want)
	}
}

// TestSimSpecHashIdentical is the satellite guarantee: the same spec always
// hashes identically — across repeated calls, across independently
// constructed values, and across elided-vs-explicit defaults.
func TestSimSpecHashIdentical(t *testing.T) {
	a := SimSpec{Benchmark: "mcf", Scheme: "AOS", Instructions: 20_000, Seed: 3}
	for i := 0; i < 100; i++ {
		b := SimSpec{Benchmark: "mcf", Scheme: "AOS", Instructions: 20_000, Seed: 3}
		if a.Hash() != b.Hash() {
			t.Fatalf("iteration %d: identical specs hashed differently", i)
		}
	}

	// Elided defaults normalize to the same address as explicit ones.
	p, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("mcf profile missing")
	}
	elided, err := SimSpec{Benchmark: "mcf", Scheme: "AOS"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := SimSpec{Benchmark: "mcf", Scheme: "AOS", Instructions: p.Instructions, Seed: 1}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if elided.Hash() != explicit.Hash() {
		t.Errorf("default resolution diverged: elided %s != explicit %s", elided.Hash(), explicit.Hash())
	}

	// Every field participates in the address.
	base := SimSpec{Benchmark: "mcf", Scheme: "AOS", Instructions: 20_000, Seed: 3}
	for name, other := range map[string]SimSpec{
		"benchmark":    {Benchmark: "gcc", Scheme: "AOS", Instructions: 20_000, Seed: 3},
		"scheme":       {Benchmark: "mcf", Scheme: "PA", Instructions: 20_000, Seed: 3},
		"instructions": {Benchmark: "mcf", Scheme: "AOS", Instructions: 20_001, Seed: 3},
		"seed":         {Benchmark: "mcf", Scheme: "AOS", Instructions: 20_000, Seed: 4},
		"sanitize":     {Benchmark: "mcf", Scheme: "AOS", Instructions: 20_000, Seed: 3, Sanitize: true},
	} {
		if base.Hash() == other.Hash() {
			t.Errorf("%s does not participate in the hash", name)
		}
	}
}

func TestSimSpecNormalizeErrors(t *testing.T) {
	if _, err := (SimSpec{Benchmark: "nonesuch", Scheme: "AOS"}).Normalize(); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := (SimSpec{Benchmark: "gcc", Scheme: "nonesuch"}).Normalize(); err == nil {
		t.Error("unknown scheme accepted")
	}
}

// TestRunSpecDeterministic verifies the property the result cache depends
// on: re-running the same spec reproduces byte-identical result JSON.
func TestRunSpecDeterministic(t *testing.T) {
	spec := SimSpec{Benchmark: "mcf", Scheme: "AOS", Instructions: 15_000}
	a, err := RunSpec(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSpec(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	aj, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Fatalf("repeat runs differ:\n%s\n%s", aj, bj)
	}
	if a.Cycles == 0 || a.Instructions == 0 {
		t.Errorf("implausible result: %+v", a)
	}
	if a.Spec.Instructions != 15_000 || a.Spec.Seed != 1 {
		t.Errorf("result spec not normalized: %+v", a.Spec)
	}
}

// TestRunSpecCanceled: a pre-canceled context aborts before simulating.
func TestRunSpecCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunSpec(ctx, SimSpec{Benchmark: "mcf", Scheme: "Baseline", Instructions: 15_000})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestMatrixErrOrderDeterministic pins Matrix.Err()'s error ordering: with
// several injected failures racing over a parallel pool, the joined error
// must list them in job order (benchmark-major, scheme-minor) on every run.
func TestMatrixErrOrderDeterministic(t *testing.T) {
	fail := map[string]bool{
		"gcc/AOS":       true,
		"mcf/Baseline":  true,
		"milc/PA":       true,
		"soplex/PA+AOS": true,
	}
	orig := runJob
	runJob = func(c Cell, o Options) (Summary, error) {
		key := c.Profile.Name + "/" + c.Scheme.String()
		if fail[key] {
			return Summary{}, fmt.Errorf("injected: %s", key)
		}
		return Summary{}, nil // skip real simulation; ordering is what's under test
	}
	defer func() { runJob = orig }()

	// Job order is benchmark-major over workload.SPEC(), scheme-minor over
	// instrument.Schemes() — the order RunMatrix builds its job slice.
	var want []string
	for _, p := range workload.SPEC() {
		for _, s := range instrument.Schemes() {
			if key := p.Name + "/" + s.String(); fail[key] {
				want = append(want, key)
			}
		}
	}

	var first string
	for trial := 0; trial < 5; trial++ {
		m, err := RunMatrix(Options{Instructions: 8_000, Seed: 1, Workers: 8})
		if err == nil {
			t.Fatal("injected failures not reported")
		}
		if len(m.Errors) != len(want) {
			t.Fatalf("trial %d: %d errors, want %d", trial, len(m.Errors), len(want))
		}
		for i, e := range m.Errors {
			if got := e.Cell.String(); got != want[i] {
				t.Fatalf("trial %d: Errors[%d] = %s, want %s", trial, i, got, want[i])
			}
		}
		msg := m.Err().Error()
		if first == "" {
			first = msg
		} else if msg != first {
			t.Fatalf("trial %d: error text varies across runs:\n%s\nvs\n%s", trial, msg, first)
		}
		// The joined message lists failures in job order too.
		last := -1
		for _, key := range want {
			idx := strings.Index(msg, key)
			if idx < 0 {
				t.Fatalf("trial %d: %s missing from joined error %q", trial, key, msg)
			}
			if idx < last {
				t.Fatalf("trial %d: %s out of order in joined error %q", trial, key, msg)
			}
			last = idx
		}
	}
}

// TestMatrixCanceled: a canceled Options.Context fails every job with the
// context error instead of hanging or simulating.
func TestMatrixCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, err := RunMatrix(Options{Instructions: 8_000, Seed: 1, Workers: 4, Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	want := len(workload.SPEC()) * len(instrument.Schemes())
	if len(m.Errors) != want {
		t.Fatalf("%d errored jobs, want all %d", len(m.Errors), want)
	}
}
