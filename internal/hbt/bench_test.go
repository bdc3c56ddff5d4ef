package hbt

import (
	"fmt"
	"testing"

	"aos/internal/mem"
)

// BenchmarkTable times the table's operations, one call per op:
//   - Insert into a one-way table, row after row, until every row is half
//     full (then a fresh table, untimed);
//   - Lookup at 1, 8, 16 and 64 ways on a half-full row whose last entry
//     covers the address, so the scan reads half the row: a row of up to
//     eight ways is one view of one memory granule, a wider one is copied
//     across its granules (see Table.row);
//   - Migration.Step over 256 half-full rows of an 8- and a 16-way table.
func BenchmarkTable(b *testing.B) {
	b.Run("Insert", func(b *testing.B) {
		const perTable = Rows * BoundsPerWay / 2
		var tb *Table
		for i := 0; i < b.N; i++ {
			if i%perTable == 0 {
				b.StopTimer()
				tb = newTestTable(b, 1)
				b.StartTimer()
			}
			if _, err := tb.Insert(uint16(i), uint64(i)<<4, 16); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, ways := range []int{1, 8, 16, 64} {
		b.Run(fmt.Sprintf("Lookup/ways=%d", ways), func(b *testing.B) {
			tb := newTestTable(b, ways)
			const pac = 0x1234
			var last uint64
			for k := 0; k < ways*BoundsPerWay/2; k++ {
				last = 0x1000_0000 + uint64(k)*8192
				if _, err := tb.Insert(pac, last, 4096); err != nil {
					b.Fatal(err)
				}
			}
			want := ways/2 - 1
			if ways == 1 {
				want = 0
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if w, ok := tb.Lookup(pac, last+100); !ok || w != want {
					b.Fatalf("Lookup = way %d, %v; want way %d", w, ok, want)
				}
			}
		})
	}
	for _, ways := range []int{8, 16} {
		b.Run(fmt.Sprintf("Step/ways=%d", ways), func(b *testing.B) {
			const rows = 256
			m := mem.New()
			old, err := NewTable(m, tblBase, ways)
			if err != nil {
				b.Fatal(err)
			}
			for pac := 0; pac < rows; pac++ {
				for k := 0; k < ways*BoundsPerWay/2; k++ {
					if _, err := old.Insert(uint16(pac), uint64(pac*ways*BoundsPerWay+k)<<4, 16); err != nil {
						b.Fatal(err)
					}
				}
			}
			// Each op migrates the same rows in a space no snapshot
			// shares: the old rows come back from a copy, and the new
			// table's rows are zeroed again, untimed.
			ts, size := old.Snapshot(), uint64(rows*ways*WayBytes)
			const copyBase, newBase = tblBase + 1<<32, tblBase + 2<<32
			m.Copy(copyBase, tblBase, size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				old.Restore(ts)
				m.Copy(tblBase, copyBase, size)
				m.Zero(newBase, 2*size)
				mi, err := StartMigration(old, newBase)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				mi.Step(rows)
				if mi.New.Live() != rows*ways*BoundsPerWay/2 {
					b.Fatalf("migrated %d entries, want %d", mi.New.Live(), rows*ways*BoundsPerWay/2)
				}
			}
		})
	}
}
