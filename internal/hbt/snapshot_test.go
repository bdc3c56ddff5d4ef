package hbt

import (
	"reflect"
	"testing"

	"aos/internal/mem"
)

// TestTableSnapshotRestoreDeterminism: restoring a table plus its backing
// memory must reproduce straight-line behavior exactly.
func TestTableSnapshotRestoreDeterminism(t *testing.T) {
	m := mem.New()
	a, err := NewTable(m, 0x4000_0000, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		low := uint64(0x1000_0000) + uint64(i)*256
		if _, err := a.Insert(uint16(i*31), low, 128); err != nil {
			t.Fatal(err)
		}
	}
	ms := m.Snapshot()
	ts := a.Snapshot()

	type probe struct {
		way   int
		found bool
	}
	replay := func(tb *Table) []probe {
		var out []probe
		for i := 0; i < 2000; i++ {
			low := uint64(0x1000_0000) + uint64(i)*256
			w, ok := tb.Lookup(uint16(i*31), low+64)
			out = append(out, probe{w, ok})
			if i%4 == 0 {
				tb.Clear(uint16(i*31), low)
			}
			if i%8 == 0 {
				tb.Insert(uint16(i*17+3), low+0x100_0000, 64)
			}
		}
		return out
	}
	want := replay(a)
	liveAfter := a.Live()

	m2 := mem.New()
	m2.Restore(ms)
	b, _ := NewTable(m2, 0x4000_0000, 2)
	b.Restore(ts)
	got := replay(b)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("restored table diverged from straight-line execution")
	}
	if b.Live() != liveAfter {
		t.Fatalf("live count diverged: %d vs %d", b.Live(), liveAfter)
	}
	// The snapshots survived b's continuation: a second restore replays
	// the same way.
	m3 := mem.New()
	m3.Restore(ms)
	c, _ := NewTable(m3, 0x4000_0000, 2)
	c.Restore(ts)
	if got := replay(c); !reflect.DeepEqual(got, want) || c.Live() != liveAfter {
		t.Fatal("snapshot mutated by a restored table's continuation")
	}
}

// TestTableSnapshotAllocsFlat: the entries live only in simulated memory,
// so checkpointing a full table allocates its bookkeeping and nothing per
// row.
func TestTableSnapshotAllocsFlat(t *testing.T) {
	tb := newTestTable(t, 1)
	for i := 0; i < 30_000; i++ {
		if _, err := tb.Insert(uint16(i), 0x2000_0000_0000+uint64(i)*64, 32); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { tb.Restore(tb.Snapshot()) }); allocs > 1 {
		t.Errorf("Snapshot+Restore of a 30,000-row table: %v allocations, want at most 1", allocs)
	}
	if tb.Live() != 30_000 {
		t.Fatalf("live = %d after restore, want 30000", tb.Live())
	}
}

// TestTableSnapshotComplete is the reflection guard. Every Table field is
// classified as checkpointed or operational, and every tableState field an
// assignment would share is on the deep-copy list, which is empty: a
// snapshot is one assignment.
func TestTableSnapshotComplete(t *testing.T) {
	checkpointed := map[string]bool{"tableState": true}
	operational := map[string]bool{
		// mem is the runtime wiring to the simulated address space; the
		// space itself is checkpointed by mem.Memory.Snapshot. wide is
		// row's copy of a wide row.
		"mem": true, "wide": true,
	}
	typ := reflect.TypeOf(Table{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if checkpointed[name] == operational[name] {
			t.Errorf("hbt.Table field %q is not classified as checkpointed or operational; update snapshot.go and this test", name)
		}
	}
	deepCopied := map[string]bool{}
	st := reflect.TypeOf(tableState{})
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		if shares := sharesStorage(f.Type); shares != deepCopied[f.Name] {
			t.Errorf("hbt.tableState field %q: shares storage %v, on the deep-copy list %v; update snapshot.go and this test",
				f.Name, shares, deepCopied[f.Name])
		}
	}
}

// sharesStorage reports whether assigning a value of type t leaves the
// copy sharing storage with the original.
func sharesStorage(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Slice, reflect.Map, reflect.Pointer, reflect.Interface, reflect.Func, reflect.Chan:
		return true
	case reflect.Array:
		return sharesStorage(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if sharesStorage(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}
