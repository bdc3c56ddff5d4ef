package cache

import (
	"reflect"
	"testing"
)

func fillCache(c *Cache, n int, salt uint64) {
	for i := 0; i < n; i++ {
		_, _, _ = c.Access(uint64(i)*64+salt*1024*1024, i%3 == 0)
	}
}

// TestCacheSnapshotRestoreDeterminism: a restored cache must behave exactly
// like the original from the snapshot point on.
func TestCacheSnapshotRestoreDeterminism(t *testing.T) {
	cfg := Config{SizeBytes: 32 << 10, Ways: 4, Latency: 2}
	a, err := NewCache(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillCache(a, 5000, 0)
	s := a.Snapshot()

	type probe struct {
		hit, victimDirty bool
		victimAddr       uint64
	}
	replay := func(c *Cache) []probe {
		var out []probe
		for i := 0; i < 3000; i++ {
			h, vd, va := c.Access(uint64(i*13)*64, i%5 == 0)
			out = append(out, probe{h, vd, va})
		}
		return out
	}
	want := replay(a)

	b, _ := NewCache(cfg)
	if err := b.Restore(s); err != nil {
		t.Fatal(err)
	}
	got := replay(b)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("restored cache diverged from straight-line execution")
	}
	if a.stats != b.stats {
		t.Fatalf("stats diverged: %+v vs %+v", a.stats, b.stats)
	}
	// Snapshot survived the continuations: two fresh restores agree.
	c, _ := NewCache(cfg)
	d, _ := NewCache(cfg)
	c.Restore(s)
	d.Restore(s)
	if !reflect.DeepEqual(c, d) {
		t.Fatal("snapshot mutated by a restored cache's continuation")
	}
}

func TestCacheRestoreGeometryMismatch(t *testing.T) {
	a, _ := NewCache(Config{SizeBytes: 32 << 10, Ways: 4, Latency: 2})
	b, _ := NewCache(Config{SizeBytes: 16 << 10, Ways: 4, Latency: 2})
	if err := b.Restore(a.Snapshot()); err == nil {
		t.Fatal("expected geometry-mismatch error")
	}
}

// TestHierarchySnapshotRestore covers the composite, including the nilable
// bounds cache and traffic counters.
func TestHierarchySnapshotRestore(t *testing.T) {
	for _, withB := range []bool{false, true} {
		cfg := HierarchyConfig{
			L1I:         Config{SizeBytes: 32 << 10, Ways: 4, Latency: 1},
			L1D:         Config{SizeBytes: 32 << 10, Ways: 4, Latency: 2},
			L2:          Config{SizeBytes: 256 << 10, Ways: 8, Latency: 12},
			DRAMLatency: 100,
		}
		if withB {
			cfg.L1B = &Config{SizeBytes: 8 << 10, Ways: 4, Latency: 2}
		}
		h, err := NewHierarchy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4000; i++ {
			h.AccessData(uint64(i*7)*64, i%4 == 0)
			h.FetchInst(uint64(i % 512 * 64))
			h.AccessBounds(uint64(i*3)*64, i%7 == 0)
		}
		h.AddBulkTraffic(4096)
		s := h.Snapshot()

		var want []int
		for i := 0; i < 2000; i++ {
			want = append(want, h.AccessData(uint64(i*11)*64, false))
		}

		g, _ := NewHierarchy(cfg)
		if err := g.Restore(s); err != nil {
			t.Fatal(err)
		}
		var got []int
		for i := 0; i < 2000; i++ {
			got = append(got, g.AccessData(uint64(i*11)*64, false))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("withB=%v: restored hierarchy diverged", withB)
		}
		if g.traffic != s.traffic || g.DRAMAccesses == s.dram {
			// traffic advanced past the snapshot in both spaces; just check
			// the restore landed on the snapshot values before the replay.
			g2, _ := NewHierarchy(cfg)
			g2.Restore(s)
			if g2.traffic != s.traffic || g2.DRAMAccesses != s.dram {
				t.Fatalf("withB=%v: counters not restored", withB)
			}
		}
	}
}

func TestHierarchyRestoreL1BMismatch(t *testing.T) {
	cfg := HierarchyConfig{
		L1I:         Config{SizeBytes: 32 << 10, Ways: 4, Latency: 1},
		L1D:         Config{SizeBytes: 32 << 10, Ways: 4, Latency: 2},
		L2:          Config{SizeBytes: 256 << 10, Ways: 8, Latency: 12},
		DRAMLatency: 100,
	}
	noB, _ := NewHierarchy(cfg)
	cfg.L1B = &Config{SizeBytes: 8 << 10, Ways: 4, Latency: 2}
	withB, _ := NewHierarchy(cfg)
	if err := withB.Restore(noB.Snapshot()); err == nil {
		t.Fatal("expected L1-B presence mismatch error")
	}
}

// Reflection guards: every field of Cache and Hierarchy must be classified
// so new fields cannot silently escape checkpoints.
func TestCacheSnapshotComplete(t *testing.T) {
	covered := map[string]bool{"wide": true, "narrow": true, "stats": true}
	operational := map[string]bool{
		// cfg and setBits are construction-time geometry; Restore verifies
		// rather than carries them.
		"cfg": true, "setBits": true,
	}
	typ := reflect.TypeOf(Cache{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if covered[name] == operational[name] {
			t.Errorf("cache.Cache field %q is not classified as snapshotted or operational; update Snapshot/Restore and this test", name)
		}
	}
}

func TestHierarchySnapshotComplete(t *testing.T) {
	covered := map[string]bool{
		"L1I": true, "L1D": true, "L1B": true, "L2": true,
		"traffic": true, "DRAMAccesses": true,
	}
	operational := map[string]bool{
		"dramLat": true, // construction-time latency constant
	}
	typ := reflect.TypeOf(Hierarchy{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if covered[name] == operational[name] {
			t.Errorf("cache.Hierarchy field %q is not classified as snapshotted or operational; update Snapshot/Restore and this test", name)
		}
	}
}
