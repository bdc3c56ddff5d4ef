package heap

import (
	"fmt"
	"maps"
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
// original continuing straight-line, and allocators restored from one
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
		liveAtSnap := append([]uint64(nil), live...)
		sizesAtSnap := maps.Clone(a.sizes)
		quarantineAtSnap := append([]uint64(nil), a.quarantine...)
		restored := func() *Allocator {
			m2 := mem.New()
			m2.Restore(ms)
			b := New(m2, 0x2000_0000, 64<<20)
			b.Restore(as)
			return b
		}

		want, _ := heapChurn(t, a, live)
		statsAfter := a.stats

		b := restored()
		if !maps.Equal(b.sizes, sizesAtSnap) || !slices.Equal(b.quarantine, quarantineAtSnap) {
			t.Fatalf("%s: the original's continuation reached the snapshot's live-size map or quarantine", name)
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
		wantSizes := maps.Clone(alone.sizes)
		wantQuarantine := append([]uint64(nil), alone.quarantine...)
		c, d := restored(), restored()
		mustFree(t, c, pc)
		mustFree(t, d, pd)
		if !reflect.DeepEqual(c.DrainAccesses(), wantLog) || !maps.Equal(c.sizes, wantSizes) ||
			!slices.Equal(c.quarantine, wantQuarantine) {
			t.Fatalf("%s: a free on one restored allocator reached another's access log, live-size map or quarantine", name)
		}
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
// field an assignment would share is on the deep-copy list that clone
// copies.
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
