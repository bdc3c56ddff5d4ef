package experiments

import (
	"fmt"
	"sync/atomic"
	"testing"

	"aos/internal/sampling"
)

// render is v's text rendering, or err.
func render[T fmt.Stringer](v T, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return v.String(), nil
}

// TestMemoSharesCells runs every experiment that repeats the matrix's
// cells, exact and sampled at once, once without a memo and once
// carrying the memo a matrix run filled. The renderings must be
// byte-identical, and with the memo each experiment simulates only its
// cells outside the matrix: Fig 15 its 48 AOS cells without L1-B or
// compression, the resize study none, the ablations their 15 non-"full"
// cells, and the scheme comparison its 32 MTE and hardened-allocator
// cells.
func TestMemoSharesCells(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every cell experiment twice in two modes")
	}
	steps := []struct {
		name  string
		cells int64 // simulated with the memo
		run   func(Options) (string, error)
	}{
		{"fig15", 48, func(o Options) (string, error) { return render(Fig15(o)) }},
		{"resize", 0, func(o Options) (string, error) { return render(ResizeStudy(o)) }},
		{"ablate", 15, func(o Options) (string, error) { return render(Ablations(o)) }},
		{"schemes", 32, func(o Options) (string, error) { return render(SchemeOverhead(o)) }},
	}
	// Both modes run at once on one memo: a sampled cell must never
	// answer for an exact one. runJob counts each mode's simulations.
	memo := new(Memo)
	var exact, sampled atomic.Int64
	modes := []struct {
		name  string
		sched *sampling.Schedule
		runs  *atomic.Int64
	}{
		{"exact", nil, &exact},
		{"sampled", &sampling.Schedule{Windows: 2, Detail: 1_000, Window: 2_000}, &sampled},
	}
	orig := runJob
	runJob = func(c Cell, o Options) (Summary, error) {
		switch {
		case o.Memo == nil:
		case o.Sampling == nil:
			exact.Add(1)
		default:
			sampled.Add(1)
		}
		return orig(c, o)
	}
	t.Cleanup(func() { runJob = orig })

	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			t.Parallel()
			o := Options{Instructions: 8_000, Seed: 1, Sampling: mode.sched}
			want := make([]string, len(steps))
			for i, s := range steps {
				var err error
				if want[i], err = s.run(o); err != nil {
					t.Fatalf("%s without a memo: %v", s.name, err)
				}
			}
			o.Memo = memo
			n := mode.runs
			if _, err := RunMatrix(o); err != nil {
				t.Fatal(err)
			}
			if got := n.Load(); got != 80 {
				t.Fatalf("the matrix simulated %d cells, want 80", got)
			}
			for i, s := range steps {
				before := n.Load()
				got, err := s.run(o)
				if err != nil {
					t.Fatalf("%s with the memo: %v", s.name, err)
				}
				if got != want[i] {
					t.Errorf("%s with the memo renders\n%s\nwithout it\n%s", s.name, got, want[i])
				}
				if ran := n.Load() - before; ran != s.cells {
					t.Errorf("%s with the memo simulated %d cells, want %d", s.name, ran, s.cells)
				}
			}
		})
	}
}
