package heap

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"aos/internal/mem"
)

// heapChurn exercises allocator behavior from a given state: a fixed
// pseudo-random malloc/free mix whose returned pointers are the probe.
func heapChurn(t *testing.T, a *Allocator, live []uint64) ([]uint64, []uint64) {
	t.Helper()
	var ptrs []uint64
	for i := 0; i < 1500; i++ {
		x := uint64(i)*2654435761 + 12345
		if len(live) > 4 && x%3 == 0 {
			vi := int(x/7) % len(live)
			if err := a.Free(live[vi]); err != nil {
				t.Fatalf("free %d: %v", i, err)
			}
			live[vi] = live[len(live)-1]
			live = live[:len(live)-1]
		} else {
			p, err := a.Malloc(16 + x%480)
			if err != nil {
				t.Fatalf("malloc %d: %v", i, err)
			}
			live = append(live, p)
			ptrs = append(ptrs, p)
		}
	}
	return ptrs, live
}

// TestAllocatorSnapshotRestoreDeterminism: a restored allocator (plus its
// restored memory) must hand out the exact same pointer sequence as the
// original continuing straight-line, whether it is fresh or restored in
// place over its own grown buffers, and allocators restored from one
// snapshot must share no storage with it or with each other.
func TestAllocatorSnapshotRestoreDeterminism(t *testing.T) {
	hardened := Hardening{QuarantineDepth: 8, Canary: true, PoisonOnFree: true}
	for _, tc := range []struct {
		hard Hardening
		// freeEvery frees every n-th chunk before the snapshot (0 frees
		// none), so the snapshot holds binned chunks and a full quarantine.
		freeEvery int
	}{{Hardening{}, 0}, {hardened, 0}, {Hardening{}, 3}, {hardened, 3}} {
		name := fmt.Sprintf("hard=%+v freeEvery=%d", tc.hard, tc.freeEvery)
		m := mem.New()
		a := New(m, 0x2000_0000, 64<<20)
		a.SetHardening(tc.hard)
		var live []uint64
		for i := 0; i < 500; i++ {
			p, err := a.Malloc(32 + uint64(i%7)*48)
			if err != nil {
				t.Fatal(err)
			}
			if tc.freeEvery > 0 && i%tc.freeEvery == 0 {
				mustFree(t, a, p)
				continue
			}
			live = append(live, p)
		}
		ms := m.Snapshot()
		as := a.Snapshot()
		checkUnshared(t, name, a, as)
		liveAtSnap := append([]uint64(nil), live...)
		sizesAtSnap := a.sizes.Clone()
		quarantineAtSnap := append([]uint64(nil), a.quarantine...)
		restoreInto := func(b *Allocator) {
			b.mem.Restore(ms)
			b.Restore(as)
			checkUnshared(t, name, b, as)
		}
		restored := func() *Allocator {
			b := New(mem.New(), 0x2000_0000, 64<<20)
			restoreInto(b)
			return b
		}

		want, _ := heapChurn(t, a, live)
		statsAfter := a.stats

		// In place: the snapshot is copied into a's own live-size table,
		// which its continuation grew, so a second continuation repeats
		// the first.
		restoreInto(a)
		if got, _ := heapChurn(t, a, append([]uint64(nil), liveAtSnap...)); !reflect.DeepEqual(got, want) || a.stats != statsAfter {
			t.Fatalf("%s: allocator restored in place diverged", name)
		}

		b := restored()
		if !sameTable(&b.sizes, &sizesAtSnap) || !slices.Equal(b.quarantine, quarantineAtSnap) {
			t.Fatalf("%s: a continuation reached the snapshot's live-size table or quarantine", name)
		}
		got, _ := heapChurn(t, b, append([]uint64(nil), liveAtSnap...))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: restored allocator pointer stream diverged", name)
		}
		if b.stats != statsAfter {
			t.Fatalf("%s: stats diverged: %+v vs %+v", name, b.stats, statsAfter)
		}

		// Allocators restored from one snapshot share no storage: c freeing
		// a chunk beside d freeing another ends exactly as c does alone.
		pc, pd := liveAtSnap[0], liveAtSnap[1]
		alone := restored()
		mustFree(t, alone, pc)
		wantLog := append([]Access(nil), alone.DrainAccesses()...)
		wantSizes := alone.sizes.Clone()
		wantQuarantine := append([]uint64(nil), alone.quarantine...)
		c, d := restored(), restored()
		mustFree(t, c, pc)
		mustFree(t, d, pd)
		if !reflect.DeepEqual(c.DrainAccesses(), wantLog) || !sameTable(&c.sizes, &wantSizes) ||
			!slices.Equal(c.quarantine, wantQuarantine) {
			t.Fatalf("%s: a free on one restored allocator reached another's access log, live-size table or quarantine", name)
		}
	}
}

// checkUnshared fails if a keeps its access log, quarantine or live-size
// slots in the snapshot's arrays. Sharing can hide from the behavioural
// checks: a FIFO or log that only appends past the snapshot's length
// never overwrites what the snapshot sees until a drain or an in-place
// restore does.
func checkUnshared(t *testing.T, name string, a *Allocator, s *State) {
	t.Helper()
	if sameArray(a.accesses, s.accesses) || sameArray(a.quarantine, s.quarantine) || sameArray(a.sizes.slots, s.sizes.slots) {
		t.Fatalf("%s: an allocator shares its access log, quarantine or live-size slots with a snapshot", name)
	}
}

func sameArray[T any](x, y []T) bool { return len(x) > 0 && len(y) > 0 && &x[0] == &y[0] }

// sameTable reports whether two tables hold the same slots. Tables built
// by the same operations from the same state lay their keys out alike, so
// this is map equality for the histories compared here.
func sameTable(x, y *ChunkTable) bool {
	return x.n == y.n && slices.Equal(x.slots, y.slots)
}

// TestAllocatorRestoreAllocatesNothing: Restore copies the live-size
// table, access log and quarantine into the allocator's own buffers, so
// restoring its own snapshot allocates nothing however many chunks live.
func TestAllocatorRestoreAllocatesNothing(t *testing.T) {
	a, _ := newTestAllocator(t)
	for i := 0; i < 30_000; i++ {
		if _, err := a.Malloc(16 + uint64(i%29)*16); err != nil {
			t.Fatal(err)
		}
	}
	s := a.Snapshot()
	if n := s.sizes.n; n != 30_000 {
		t.Fatalf("snapshot holds %d live sizes, want 30000", n)
	}
	if n := testing.AllocsPerRun(10, func() { a.Restore(s) }); n != 0 {
		t.Fatalf("Restore allocated %v times per run, want 0", n)
	}
}

func mustFree(t *testing.T, a *Allocator, p uint64) {
	t.Helper()
	if err := a.Free(p); err != nil {
		t.Fatalf("free %#x: %v", p, err)
	}
}

// TestAllocatorSnapshotComplete is the reflection guard. Every Allocator
// field is classified as checkpointed or operational, and every allocState
// field an assignment would share is on the deep-copy list: Snapshot
// clones it and Restore copies it into the allocator's own buffer.
func TestAllocatorSnapshotComplete(t *testing.T) {
	checkpointed := map[string]bool{"allocState": true}
	operational := map[string]bool{
		// mem is runtime wiring, checkpointed by mem.Memory.Snapshot.
		"mem": true,
	}
	typ := reflect.TypeOf(Allocator{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if checkpointed[name] == operational[name] {
			t.Errorf("heap.Allocator field %q is not classified as checkpointed or operational; update snapshot.go and this test", name)
		}
	}
	deepCopied := map[string]bool{"sizes": true, "accesses": true, "quarantine": true}
	st := reflect.TypeOf(allocState{})
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		if shares := sharesStorage(f.Type); shares != deepCopied[f.Name] {
			t.Errorf("heap.allocState field %q: shares storage %v, on the deep-copy list %v; update snapshot.go and this test",
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
