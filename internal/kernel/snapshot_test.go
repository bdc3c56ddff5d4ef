package kernel

import (
	"reflect"
	"testing"

	"aos/internal/mem"
)

// TestOSSnapshotRestoreDeterminism: restore must rewind table growth and
// the exception/resize logs, even across a table migration.
func TestOSSnapshotRestoreDeterminism(t *testing.T) {
	m := mem.New()
	o, err := NewOS(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := o.Table().Insert(uint16(i*13), 0x1000_0000+uint64(i)*256, 64); err != nil {
			t.Fatal(err)
		}
	}
	ms := m.Snapshot()
	s := o.Snapshot()
	baseAtSnap := o.Table().Base()
	assocAtSnap := o.Table().Assoc()
	liveAtSnap := o.Table().Live()

	// Diverge: grow the table (allocates a new one at nextHBT) and log an
	// exception.
	if _, err := o.HandleTableFull(); err != nil {
		t.Fatal(err)
	}
	o.RaiseException(ExcBoundsCheck, 0xdead, "post-snapshot")
	if o.Table().Assoc() == assocAtSnap && o.Table().Base() == baseAtSnap {
		t.Fatal("test is vacuous: HandleTableFull changed nothing")
	}

	m.Restore(ms)
	o.Restore(s)
	if o.Table().Base() != baseAtSnap || o.Table().Assoc() != assocAtSnap || o.Table().Live() != liveAtSnap {
		t.Fatalf("table not rewound: base=%#x assoc=%d live=%d, want %#x/%d/%d",
			o.Table().Base(), o.Table().Assoc(), o.Table().Live(), baseAtSnap, assocAtSnap, liveAtSnap)
	}
	if len(o.Exceptions()) != 0 || len(o.Resizes()) != 0 {
		t.Fatalf("logs not rewound: %d exceptions, %d resizes", len(o.Exceptions()), len(o.Resizes()))
	}
	// The restored table agrees with the restored memory.
	for i := 0; i < 300; i++ {
		if _, ok := o.Table().Lookup(uint16(i*13), 0x1000_0000+uint64(i)*256+32); !ok {
			t.Fatalf("entry %d missing after restore", i)
		}
	}
	// The snapshot survives repeated restores.
	if _, err := o.HandleTableFull(); err != nil {
		t.Fatal(err)
	}
	m.Restore(ms)
	o.Restore(s)
	if o.Table().Base() != baseAtSnap || o.Table().Live() != liveAtSnap {
		t.Fatal("second restore diverged: snapshot was mutated")
	}

	// A snapshot of non-empty logs gives its restores logs of their own:
	// an append on the original or a restored OS cannot reach the
	// snapshot's arrays or each other's.
	if _, err := o.HandleTableFull(); err != nil {
		t.Fatal(err)
	}
	o.RaiseException(ExcBoundsCheck, 0xbeef, "pre-snapshot")
	ms, s = m.Snapshot(), o.Snapshot()
	m2 := mem.New()
	m2.Restore(ms)
	o2, err := NewOS(m2, 1)
	if err != nil {
		t.Fatal(err)
	}
	o2.Restore(s)
	if !reflect.DeepEqual(o2.Resizes(), o.Resizes()) || !reflect.DeepEqual(o2.Exceptions(), o.Exceptions()) {
		t.Fatal("restored logs differ from the original's")
	}
	for _, os := range []*OS{o, o2} {
		if &os.resizes[0] == &s.resizes[0] || &os.exceptions[0] == &s.exceptions[0] {
			t.Fatal("an OS shares its resize or exception log's array with its snapshot")
		}
	}
}

// TestOSRestoreAllocatesNothing: restoring a checkpoint whose logs hold
// exceptions and a resize copies them into the OS's own slices, so once
// those have grown to hold them a restore allocates nothing.
func TestOSRestoreAllocatesNothing(t *testing.T) {
	m := mem.New()
	o, err := NewOS(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.HandleTableFull(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		o.RaiseException(ExcBoundsCheck, 0x1000+uint64(i), "logged")
	}
	s := o.Snapshot()
	o.RaiseException(ExcBoundsCheck, 0x2000, "after the snapshot")
	o.Restore(s)
	if allocs := testing.AllocsPerRun(20, func() { o.Restore(s) }); allocs != 0 {
		t.Errorf("OS.Restore with 3 exceptions and 1 resize logged: %v allocations, want 0", allocs)
	}
	if len(o.Exceptions()) != 3 || len(o.Resizes()) != 1 {
		t.Fatalf("restored logs hold %d exceptions and %d resizes, want 3 and 1", len(o.Exceptions()), len(o.Resizes()))
	}
}

// TestOSSnapshotComplete is the reflection guard. Every OS field is
// classified as checkpointed or operational, and every osState field an
// assignment would share is on the deep-copy list that Snapshot clones
// and Restore copies into the OS's own slices.
func TestOSSnapshotComplete(t *testing.T) {
	checkpointed := map[string]bool{
		// table snapshots itself into State.
		"osState": true, "table": true,
	}
	operational := map[string]bool{
		// mem is runtime wiring, checkpointed by mem.Memory.Snapshot.
		"mem": true,
	}
	typ := reflect.TypeOf(OS{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if checkpointed[name] == operational[name] {
			t.Errorf("kernel.OS field %q is not classified as checkpointed or operational; update Snapshot/Restore and this test", name)
		}
	}
	deepCopied := map[string]bool{"resizes": true, "exceptions": true}
	st := reflect.TypeOf(osState{})
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		if shares := sharesStorage(f.Type); shares != deepCopied[f.Name] {
			t.Errorf("kernel.osState field %q: shares storage %v, on the deep-copy list %v; update Snapshot/Restore and this test",
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
