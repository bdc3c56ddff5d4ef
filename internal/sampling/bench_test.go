package sampling

import (
	"context"
	"testing"

	"aos/internal/core"
	"aos/internal/cpu"
	"aos/internal/instrument"
	"aos/internal/workload"
)

// setUpCell builds a cell of the named benchmark and scheme and runs the
// workload's set-up on it in fast-forward, as a sampled run's first
// boundary does.
func setUpCell(tb testing.TB, bench string, scheme instrument.Scheme) (*workload.Profile, *core.Machine, *cpu.Core, *workload.Runner) {
	tb.Helper()
	p, ok := workload.ByName(bench)
	if !ok {
		tb.Fatalf("no %s profile", bench)
	}
	m, err := core.New(core.Config{Scheme: scheme})
	if err != nil {
		tb.Fatal(err)
	}
	c := cpu.New(cpu.DefaultConfig())
	c.SetMode(cpu.ModeFastForward)
	m.SetSink(c)
	m.SetBatch(core.EmitBatchSize)
	r, err := workload.NewRunner(p, m, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return p, m, c, r
}

// restoreCells are the cells the restore benchmarks and the allocation
// test use: gcc/AOS holds 30,000 live chunks in its heap and bounds table,
// gcc/Watchdog as many in its heap and lock map, and lbm/MTE tags a heap of
// a few large arrays.
var restoreCells = []struct {
	bench  string
	scheme instrument.Scheme
}{{"gcc", instrument.AOS}, {"gcc", instrument.Watchdog}, {"lbm", instrument.MTE}}

// BenchmarkCheckpointRestore times Machine.Restore of a checkpoint taken
// right after the workload's set-up. Restoring shares the address space,
// the table's rows and the tags page by page, and copies the page-table
// slots, the allocator's live sizes and Watchdog's lock map as one flat
// slot slice each into the machine's own, so the cost tracks the touched
// pages plus one memory copy per table, not the bytes behind them.
func BenchmarkCheckpointRestore(b *testing.B) {
	for _, tc := range restoreCells {
		b.Run(tc.bench+"/"+tc.scheme.String(), func(b *testing.B) {
			_, m, _, _ := setUpCell(b, tc.bench, tc.scheme)
			cp := m.Snapshot()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.Restore(cp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunnerRestore times the workload runner's part of a restore
// after gcc/AOS's set-up: building a runner from the state, as a cell's
// first restore does, and restoring the cell's runner in place, as every
// later one does.
func BenchmarkRunnerRestore(b *testing.B) {
	p, m, _, r := setUpCell(b, "gcc", instrument.AOS)
	st := r.State()
	b.Run("NewRunnerFromState", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := workload.NewRunnerFromState(p, m, st); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Restore", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := r.Restore(st); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestCheckpointRestoreAllocatesNothing: once a cell has restored a
// checkpoint, restoring whole checkpoints into it — machine, core and
// runner, the one after set-up and one taken further on alternately —
// copies into the cell's own buffers and allocates nothing.
func TestCheckpointRestoreAllocatesNothing(t *testing.T) {
	for _, tc := range restoreCells {
		p, m, c, r := setUpCell(t, tc.bench, tc.scheme)
		snap := func() *Checkpoint {
			return &Checkpoint{Machine: m.Snapshot(), Core: c.Snapshot(), Runner: r.State()}
		}
		first := snap()
		if err := r.RunTo(context.Background(), 20_000, 20_000); err != nil {
			t.Fatal(err)
		}
		later := snap()

		_, m2, c2, _ := setUpCell(t, tc.bench, tc.scheme)
		r2, err := first.restore(p, m2, c2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := later.restore(p, m2, c2, r2); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			for _, cp := range []*Checkpoint{first, later} {
				if _, err := cp.restore(p, m2, c2, r2); err != nil {
					t.Fatal(err)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%s/%v: restoring a whole checkpoint allocated %.1f times", tc.bench, tc.scheme, allocs)
		}
	}
}
