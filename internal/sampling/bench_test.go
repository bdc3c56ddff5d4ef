package sampling

import (
	"context"
	"runtime"
	"testing"

	"aos/internal/cache"
	"aos/internal/core"
	"aos/internal/cpu"
	"aos/internal/instrument"
	"aos/internal/mem"
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

// windowCell is setUpCell followed by a 20,000-instruction detailed
// window, so the core holds drain entries and port reservations as it
// does at a sampled run's boundaries.
func windowCell(tb testing.TB, bench string, scheme instrument.Scheme) (*workload.Profile, *core.Machine, *cpu.Core, *workload.Runner) {
	tb.Helper()
	p, m, c, r := setUpCell(tb, bench, scheme)
	c.SetMode(cpu.ModeDetailed)
	runOn(tb, m, r, 20_000)
	return p, m, c, r
}

// runOn runs a cell's workload n instructions further.
func runOn(tb testing.TB, m *core.Machine, r *workload.Runner, n uint64) {
	tb.Helper()
	until := r.Produced() + n
	if err := r.RunTo(context.Background(), until, until); err != nil {
		tb.Fatal(err)
	}
	m.Flush()
}

// snapshot takes a whole checkpoint of a cell, as a cold sampled run does
// at each boundary.
func snapshot(m *core.Machine, c *cpu.Core, r *workload.Runner) *Checkpoint {
	return &Checkpoint{Machine: m.Snapshot(), Core: c.Snapshot(), Runner: r.State()}
}

// BenchmarkCheckpointRestore times restores. Machine.Restore of a
// checkpoint taken right after the workload's set-up shares the address
// space, the table's rows and the tags page by page, and copies the
// page-table slots, the allocator's live sizes and Watchdog's lock map as
// one flat slot slice each into the machine's own, so the cost tracks the
// touched pages plus one memory copy per table, not the bytes behind them.
// The whole/ cases restore a whole checkpoint taken after a detailed
// window — machine, core and runner, through Checkpoint.restore — into a
// cell that has already restored one, as every boundary of a resumed run
// after its first does.
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
	for _, tc := range restoreCells {
		b.Run("whole/"+tc.bench+"/"+tc.scheme.String(), func(b *testing.B) {
			p, m, c, r := windowCell(b, tc.bench, tc.scheme)
			cp := snapshot(m, c, r)
			if _, err := cp.restore(p, m, c, r); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cp.restore(p, m, c, r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckpointSnapshot times taking a whole checkpoint after a
// detailed window. No write falls between two snapshots, so its B/op is
// what one checkpoint holds before any copy-on-write.
func BenchmarkCheckpointSnapshot(b *testing.B) {
	for _, tc := range restoreCells {
		b.Run(tc.bench+"/"+tc.scheme.String(), func(b *testing.B) {
			_, m, c, r := windowCell(b, tc.bench, tc.scheme)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				snapshot(m, c, r)
			}
		})
	}
}

// BenchmarkSampledResume times resumed sampled cells, the per-layer twin
// of perfbench's sampled minsts_per_s. Each op builds a cell of the
// profile's own budget (warmup half of it, 16 windows) and runs it from a
// store that holds all of its checkpoints, so it runs only its measurement
// windows and restores 17 checkpoints. The cold run that fills the store
// is outside the timer.
func BenchmarkSampledResume(b *testing.B) {
	for _, bench := range []string{"gcc", "milc"} {
		b.Run(bench+"/AOS", func(b *testing.B) {
			p, ok := workload.ByName(bench)
			if !ok {
				b.Fatalf("no %s profile", bench)
			}
			sched, err := Schedule{Windows: 16, Warmup: p.Instructions / 2}.Normalize(p.Instructions)
			if err != nil {
				b.Fatal(err)
			}
			cfg := Config{Schedule: sched, Store: NewStore(), Key: KeySpec{
				Benchmark: bench, Seed: 1, Instructions: p.Instructions, Scheme: instrument.AOS.String(),
			}}
			run := func() *Result {
				m, err := core.New(core.Config{Scheme: instrument.AOS, CodeFootprint: p.CodeFootprint})
				if err != nil {
					b.Fatal(err)
				}
				c := cpu.New(cpu.DefaultConfig())
				m.SetSink(c)
				m.SetBatch(core.EmitBatchSize)
				res, err := Run(context.Background(), p, m, c, 1, cfg)
				if err != nil {
					b.Fatal(err)
				}
				return res
			}
			run()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := run(); res.Misses != 0 {
					b.Fatalf("a resumed run missed %d checkpoints", res.Misses)
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
		first := snapshot(m, c, r)
		if err := r.RunTo(context.Background(), 20_000, 20_000); err != nil {
			t.Fatal(err)
		}
		later := snapshot(m, c, r)

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

// allocBytes returns the bytes f allocates on the heap.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCheckpointBytes bounds what a checkpoint copies. A snapshot of the
// cache hierarchy holds 4 B per L2 line and 8 B per L1 line (DESIGN §10.6)
// and under 4 KiB more: 540,672 B of lines, where 8-byte L2 words made
// 1,064,960. A core snapshot taken after a detailed window holds the
// hierarchy's and under 128 KiB more: the predictor, the BWB, the rings, the drain entries
// still draining and the ports' reserved spans, but no dense copy of the
// drain table (512 KiB) or of a port's idle slots (128 KiB per port). And
// after a machine snapshot, the copy-on-write of a fixed 20,000-instruction
// continuation costs at most 1,024 granules (512 KiB), where copying the
// 4 KiB pages gcc's continuations write takes 1.5–2.2 MB. It is measured
// as the continuation's allocations beyond those of the same continuation
// in an identical cell that took no snapshot. gcc's continuations write
// allocator metadata and HBT rows (AOS) or MTE tags; lbm's loop allocates
// nothing, so its continuation copies nothing.
func TestCheckpointBytes(t *testing.T) {
	const coreBound, cowBound = 128 << 10, 1024 * mem.GranuleSize
	hc := cache.DefaultConfig()
	cacheBound := uint64(4*hc.L2.SizeBytes/cache.LineBytes +
		8*(hc.L1I.SizeBytes+hc.L1D.SizeBytes+hc.L1B.SizeBytes)/cache.LineBytes + 4<<10)
	for _, tc := range []struct {
		bench  string
		scheme instrument.Scheme
		copies bool
	}{{"gcc", instrument.AOS, true}, {"gcc", instrument.MTE, true}, {"lbm", instrument.MTE, false}} {
		_, m, c, r := windowCell(t, tc.bench, tc.scheme)
		_, m2, _, r2 := windowCell(t, tc.bench, tc.scheme)
		caches := allocBytes(func() { c.Hierarchy().Snapshot() })
		if caches > cacheBound {
			t.Errorf("%s/%v: a cache hierarchy snapshot allocated %d B, want at most %d",
				tc.bench, tc.scheme, caches, cacheBound)
		}
		if core := allocBytes(func() { c.Snapshot() }); core > caches+coreBound {
			t.Errorf("%s/%v: a core snapshot allocated %d B, %d B beyond its caches' lines, want at most %d",
				tc.bench, tc.scheme, core, core-caches, coreBound)
		}

		m.Snapshot()
		cow := allocBytes(func() { runOn(t, m, r, 20_000) }) - allocBytes(func() { runOn(t, m2, r2, 20_000) })
		if int64(cow) > cowBound || (cow > 0) != tc.copies {
			t.Errorf("%s/%v: a continuation's copy-on-write allocated %d B, want at most %d and more than 0 %v",
				tc.bench, tc.scheme, int64(cow), cowBound, tc.copies)
		}
	}
}
