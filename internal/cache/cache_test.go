package cache

import (
	"math"
	"testing"

	"aos/internal/pa"
)

func small() Config { return Config{SizeBytes: 1024, Ways: 2, Latency: 1} } // 8 sets

func TestNewCacheValidation(t *testing.T) {
	if _, err := NewCache(Config{SizeBytes: 0, Ways: 1}); err == nil {
		t.Error("accepted zero size")
	}
	if _, err := NewCache(Config{SizeBytes: 1000, Ways: 3}); err == nil {
		t.Error("accepted non-power-of-two set count")
	}
	if _, err := NewCache(Config{SizeBytes: 64, Ways: 1, Latency: 1}); err != nil {
		t.Errorf("rejected 1-set cache: %v", err)
	}
}

// TestWordWidthFollowsGeometry: a level keeps 32-bit words exactly when
// every address below 2^pa.VABits makes a word that fits, from 1,024 sets
// up: the Table IV L2, not its L1s, nor a 512-set L2.
func TestWordWidthFollowsGeometry(t *testing.T) {
	def := DefaultConfig()
	for _, tc := range []struct {
		name   string
		cfg    Config
		narrow bool
	}{
		{"L1-I", def.L1I, false},
		{"L1-D", def.L1D, false},
		{"L1-B", *def.L1B, false},
		{"L2", def.L2, true},
		{"512 x 16", Config{SizeBytes: 512 * 16 * LineBytes, Ways: 16}, false},
		{"1024 x 1", Config{SizeBytes: 1024 * LineBytes, Ways: 1}, true},
	} {
		c := MustNewCache(tc.cfg)
		if got := c.narrow != nil; got != tc.narrow || (c.wide != nil) == got {
			t.Errorf("%s: 32-bit words %v (wide %d, narrow %d words), want %v",
				tc.name, got, len(c.wide), len(c.narrow), tc.narrow)
		}
	}
}

// TestNarrowLevelPanicsBeyondVA: a 32-bit level holds the last line below
// 2^pa.VABits, and panics on an address at or above it, whose word would
// not fit, rather than alias another line; a 64-bit level takes it.
func TestNarrowLevelPanicsBeyondVA(t *testing.T) {
	const top = uint64(1)<<pa.VABits - 1
	l2 := MustNewCache(DefaultConfig().L2)
	l2.Access(top, true)
	if !l2.Contains(top) || l2.Contains(top&^(1<<(pa.VABits-1))) {
		t.Fatal("32-bit level lost the last line below 2^VABits or aliased it")
	}
	for _, addr := range []uint64{top + 1, top + 1 + top, 1 << 63, math.MaxUint64} {
		for _, op := range []struct {
			name string
			run  func()
		}{
			{"Access", func() { l2.Access(addr, false) }},
			{"Contains", func() { l2.Contains(addr) }},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%#x) on a 32-bit level did not panic", op.name, addr)
					}
				}()
				op.run()
			}()
		}
	}
	if s := l2.Stats(); s.Hits+s.Misses != 1 {
		t.Errorf("32-bit level counted rejected accesses: %+v", s)
	}
	l1 := MustNewCache(DefaultConfig().L1D)
	l1.Access(top+1, false)
	if !l1.Contains(top+1) || l1.Contains(0) {
		t.Error("64-bit level mishandled an address at 2^VABits")
	}
}

func TestHitAfterMiss(t *testing.T) {
	c := MustNewCache(small())
	if hit, _, _ := c.Access(0x1000, false); hit {
		t.Error("cold access hit")
	}
	if hit, _, _ := c.Access(0x1008, false); !hit {
		t.Error("same-line access missed")
	}
	if hit, _, _ := c.Access(0x1040, false); hit {
		t.Error("next-line access hit")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := MustNewCache(small()) // 8 sets, 2 ways; same set every 8 lines = 512B
	a, b, d := uint64(0), uint64(512), uint64(1024)
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a most recent
	c.Access(d, false) // evicts b (LRU)
	if !c.Contains(a) {
		t.Error("LRU evicted the recently used line")
	}
	if c.Contains(b) {
		t.Error("LRU kept the least recently used line")
	}
	if !c.Contains(d) {
		t.Error("newly filled line absent")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := MustNewCache(small())
	c.Access(0, true) // dirty
	c.Access(512, false)
	_, vd, va := c.Access(1024, false) // evicts line 0 (dirty)
	if !vd || va != 0 {
		t.Errorf("dirty eviction = (%v, %#x), want (true, 0)", vd, va)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d", c.Stats().Writebacks)
	}
	// Clean eviction produces no write-back.
	_, vd, _ = c.Access(1536, false) // evicts 512 (clean)
	if vd {
		t.Error("clean eviction flagged dirty")
	}
}

func TestMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Error("empty stats miss rate != 0")
	}
	s = Stats{Hits: 3, Misses: 1}
	if s.MissRate() != 0.25 {
		t.Errorf("MissRate = %v", s.MissRate())
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h, err := NewHierarchy(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Cold: L1 miss + L2 miss + DRAM.
	if lat := h.AccessData(0x2000_0000_0000, false); lat != 1+8+100 {
		t.Errorf("cold access latency = %d, want 109", lat)
	}
	// Warm L1.
	if lat := h.AccessData(0x2000_0000_0000, false); lat != 1 {
		t.Errorf("L1 hit latency = %d, want 1", lat)
	}
	// Evicted from L1 but resident in L2: walk enough lines to spill the
	// 64KB L1D but stay inside the 8MB L2.
	for i := uint64(1); i < 4096; i++ {
		h.AccessData(0x2000_0000_0000+i*64, false)
	}
	if lat := h.AccessData(0x2000_0000_0000, false); lat != 1+8 {
		t.Errorf("L2 hit latency = %d, want 9", lat)
	}
}

func TestHierarchyTraffic(t *testing.T) {
	h, err := NewHierarchy(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	h.AccessData(0, false) // cold: 64B L1<-L2, 64B L2<-DRAM
	tr := h.Traffic()
	if tr.L1ToL2 != 64 || tr.L2ToDRAM != 64 {
		t.Errorf("cold traffic = %+v", tr)
	}
	h.AccessData(0, true) // hit: no traffic
	if h.Traffic() != tr {
		t.Error("hit generated traffic")
	}
	if tr.Total() != 128 {
		t.Errorf("Total = %d", tr.Total())
	}
}

func TestBoundsCacheIsolation(t *testing.T) {
	cfg := DefaultConfig()
	h, _ := NewHierarchy(cfg)
	// Bounds accesses with an L1-B must not touch L1-D state.
	h.AccessBounds(0x3000_0000_0000, true)
	if h.L1D.Stats().Hits+h.L1D.Stats().Misses != 0 {
		t.Error("bounds access touched the L1-D despite L1-B present")
	}
	if h.L1B.Stats().Misses != 1 {
		t.Error("bounds access missed the L1-B counters")
	}

	// Without an L1-B, bounds go through the L1-D (pollution).
	cfg.L1B = nil
	h2, _ := NewHierarchy(cfg)
	h2.AccessBounds(0x3000_0000_0000, true)
	if h2.L1D.Stats().Misses != 1 {
		t.Error("bounds access did not use the L1-D when no L1-B configured")
	}
	if h2.HasBoundsCache() {
		t.Error("HasBoundsCache = true without L1-B")
	}
}

func TestSharedL2BetweenDataAndBounds(t *testing.T) {
	h, _ := NewHierarchy(DefaultConfig())
	addr := uint64(0x3000_0000_0000)
	h.AccessBounds(addr, false) // fills L2
	// A data access to the same line: L1-D miss, L2 hit.
	if lat := h.AccessData(addr, false); lat != 1+8 {
		t.Errorf("data access after bounds fill = %d cycles, want 9 (shared L2)", lat)
	}
}

func TestAddBulkTraffic(t *testing.T) {
	h, _ := NewHierarchy(DefaultConfig())
	h.AddBulkTraffic(4 << 20)
	if h.Traffic().L2ToDRAM != 4<<20 {
		t.Error("bulk traffic not recorded")
	}
}

func TestWritebackPropagatesTraffic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L1D = Config{SizeBytes: 1024, Ways: 2, Latency: 1} // tiny L1D: 8 sets
	h, _ := NewHierarchy(cfg)
	h.AccessData(0, true)    // dirty line 0
	h.AccessData(512, false) // same set
	base := h.Traffic().L1ToL2
	h.AccessData(1024, false) // evicts dirty line 0 -> write-back + fill
	tr := h.Traffic()
	if tr.L1ToL2 != base+128 {
		t.Errorf("eviction traffic = %d, want %d (write-back + fill)", tr.L1ToL2, base+128)
	}
}

// BenchmarkHierarchyAccess times one data access through Table IV's
// hierarchy, a quarter of them writes. l2hit walks 100,000 lines (6.4 MB),
// which miss the 64 KiB L1-D and hit the 8 MiB L2; l1hit walks 256 lines
// (16 KiB), which hit the L1-D once the first pass has filled it.
func BenchmarkHierarchyAccess(b *testing.B) {
	for _, tc := range []struct {
		name  string
		lines int
	}{{"l2hit", 100_000}, {"l1hit", 256}} {
		b.Run(tc.name, func(b *testing.B) {
			h, _ := NewHierarchy(DefaultConfig())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.AccessData(uint64(i%tc.lines)*64, i%4 == 0)
			}
		})
	}
}
