package mem

import (
	"reflect"
	"testing"
)

// TestSnapshotFreezesContents: writes after Snapshot must not leak into
// the snapshot's view, whole-page or sub-word.
func TestSnapshotFreezesContents(t *testing.T) {
	m := New()
	m.WriteU64(0x1000, 0xAAAA)
	m.WriteU64(0x2000, 0xBBBB)
	s := m.Snapshot()

	m.WriteU64(0x1000, 0xDEAD) // dirty an existing page
	m.WriteU8(0x2004, 0xFF)    // sub-word write on another
	m.WriteU64(0x3000, 0xCCCC) // materialize a new page
	m.Zero(0x2000, 8)          // zero through a shared page
	m.Copy(0x1100, 0x3000, 8)  // copy into a shared page

	r := New()
	r.Restore(s)
	if got := r.ReadU64(0x1000); got != 0xAAAA {
		t.Fatalf("restored 0x1000 = %#x, want 0xAAAA", got)
	}
	if got := r.ReadU64(0x2000); got != 0xBBBB {
		t.Fatalf("restored 0x2000 = %#x, want 0xBBBB", got)
	}
	if got := r.ReadU64(0x3000); got != 0 {
		t.Fatalf("restored 0x3000 = %#x, want 0 (page did not exist)", got)
	}
	if got := r.PagesTouched(); got != 2 {
		t.Fatalf("restored PagesTouched = %d, want 2", got)
	}
	// The live space saw all its writes.
	if got := m.ReadU64(0x1000); got != 0xDEAD {
		t.Fatalf("live 0x1000 = %#x, want 0xDEAD", got)
	}
	if got := m.ReadU64(0x2000); got != 0 {
		t.Fatalf("live 0x2000 = %#x, want 0 after Zero", got)
	}
}

// TestSnapshotRestoreThenDiverge: two spaces restored from one snapshot
// diverge independently without corrupting each other or the snapshot.
func TestSnapshotRestoreThenDiverge(t *testing.T) {
	m := New()
	for a := uint64(0); a < 4*PageSize; a += 8 {
		m.WriteU64(a, a)
	}
	s := m.Snapshot()

	a, b := New(), New()
	a.Restore(s)
	b.Restore(s)
	a.WriteU64(0, 111)
	b.WriteU64(0, 222)
	if got := a.ReadU64(0); got != 111 {
		t.Fatalf("a = %d, want 111", got)
	}
	if got := b.ReadU64(0); got != 222 {
		t.Fatalf("b = %d, want 222", got)
	}
	c := New()
	c.Restore(s)
	if got := c.ReadU64(0); got != 0 {
		t.Fatalf("snapshot corrupted: c = %d, want 0", got)
	}
	// Unwritten pages still share their array (the point of COW). A
	// written page's granule index is the writer's own, and so is the
	// granule written, while its other granules stay shared.
	if a.slot(1).blk != s.slot(1).blk || b.slot(1).blk != s.slot(1).blk || a.slot(1).idx != nil {
		t.Fatal("clean pages should share one array")
	}
	if a.slot(0).idx == nil || b.slot(0).idx == nil || a.slot(0).idx == b.slot(0).idx || s.slot(0).idx != nil {
		t.Fatal("a written page's granule index should be private to its space")
	}
	for i := uint64(0); i < granules; i++ {
		ag, bg, sg := a.granule(i*GranuleSize), b.granule(i*GranuleSize), s.granule(i*GranuleSize)
		if i == 0 && (ag == sg || ag == bg || bg == sg) {
			t.Fatal("a written granule should be private to its space")
		}
		if i > 0 && (ag != sg || bg != sg) {
			t.Fatalf("granule %d of a written page was copied, not shared", i)
		}
	}
}

// TestMemorySnapshotComplete is the reflection guard: every Memory field
// must be classified as snapshotted or explicitly operational, so a new
// field cannot silently escape checkpoints, and State must carry exactly
// the snapshotted ones. Every page-table field that shares storage must
// be on the deep-copy list, and Snapshot and Restore must give each side
// its own slot slice.
func TestMemorySnapshotComplete(t *testing.T) {
	covered := map[string]bool{"pageTable": true}
	operational := map[string]bool{
		// gen is the live side's copy-on-write marker; a snapshot's view
		// never needs it (State is immutable by construction), and a
		// restore takes a fresh one.
		"gen": true,
	}
	typ := reflect.TypeOf(Memory{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if covered[name] == operational[name] {
			t.Errorf("mem.Memory field %q is not classified as snapshotted or operational; update Snapshot/Restore and this test", name)
		}
	}
	// And the converse: State must mirror the covered set.
	st := reflect.TypeOf(State{})
	if st.NumField() != len(covered) {
		t.Errorf("mem.State has %d fields, covered set has %d; keep them in sync", st.NumField(), len(covered))
	}
	for i := 0; i < st.NumField(); i++ {
		if name := st.Field(i).Name; !covered[name] {
			t.Errorf("mem.State field %q is not in the covered set", name)
		}
	}
	deepCopied := map[string]bool{"slots": true}
	pt := reflect.TypeOf(pageTable{})
	for i := 0; i < pt.NumField(); i++ {
		f := pt.Field(i)
		switch f.Type.Kind() {
		case reflect.Slice, reflect.Map, reflect.Pointer:
			if !deepCopied[f.Name] {
				t.Errorf("mem.pageTable field %q shares storage but is not on the deep-copy list", f.Name)
			}
		}
	}
	m := New()
	m.WriteU64(0, 1)
	s := m.Snapshot()
	if &s.slots[0] == &m.slots[0] {
		t.Error("Snapshot shares the live space's slot slice")
	}
	r := New()
	r.Restore(s)
	if &r.slots[0] == &s.slots[0] {
		t.Error("Restore shares the snapshot's slot slice")
	}
}

// TestSharedPageFirstWriteAllocatesOnce: a write to a page shared with a
// snapshot allocates the page's new granule index and the granule it
// copies together, so a snapshot and one such write cost one allocation
// more than the snapshot alone (two against one, or three against two
// where the race detector keeps the snapshot's State off the stack).
// Each round writes another granule of the same page, which splits it
// afresh, as its index is shared too.
func TestSharedPageFirstWriteAllocatesOnce(t *testing.T) {
	m := New()
	for pn := uint64(0); pn < 4; pn++ {
		m.WriteU64(pn<<PageBits, pn)
	}
	snap := testing.AllocsPerRun(100, func() { m.Snapshot() })
	var k uint64
	both := testing.AllocsPerRun(100, func() {
		m.Snapshot()
		k++
		m.WriteU64(2<<PageBits|k%granules<<GranuleBits, k)
	})
	if both-snap != 1 {
		t.Errorf("a snapshot allocated %v times and a snapshot plus a shared page's first write %v, want one more", snap, both)
	}
	if got := m.ReadU64(2<<PageBits | k%granules<<GranuleBits); got != k {
		t.Fatalf("last write read back %d, want %d", got, k)
	}
}
