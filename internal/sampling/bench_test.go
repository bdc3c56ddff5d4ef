package sampling

import (
	"testing"

	"aos/internal/core"
	"aos/internal/cpu"
	"aos/internal/instrument"
	"aos/internal/workload"
)

// BenchmarkCheckpointRestore times Machine.Restore of a checkpoint taken
// right after the workload's set-up: gcc/AOS holds 30,000 live chunks in
// its heap and bounds table, gcc/Watchdog as many in its heap and lock
// map, and lbm/MTE tags a heap of a few large arrays. Restoring shares
// the address space, the table's rows and the tags page by page, and
// copies the allocator's live sizes and Watchdog's lock map as one flat
// slot slice each into the machine's own, so the cost tracks the touched
// pages plus one memory copy per table, not the bytes behind them.
func BenchmarkCheckpointRestore(b *testing.B) {
	for _, tc := range []struct {
		bench  string
		scheme instrument.Scheme
	}{{"gcc", instrument.AOS}, {"gcc", instrument.Watchdog}, {"lbm", instrument.MTE}} {
		b.Run(tc.bench+"/"+tc.scheme.String(), func(b *testing.B) {
			p, ok := workload.ByName(tc.bench)
			if !ok {
				b.Fatalf("no %s profile", tc.bench)
			}
			m, err := core.New(core.Config{Scheme: tc.scheme})
			if err != nil {
				b.Fatal(err)
			}
			c := cpu.New(cpu.DefaultConfig())
			c.SetMode(cpu.ModeFastForward)
			m.SetSink(c)
			m.SetBatch(core.EmitBatchSize)
			if _, err := workload.NewRunner(p, m, 1); err != nil {
				b.Fatal(err)
			}
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
