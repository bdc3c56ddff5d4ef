package cache

import (
	"math/bits"
	"math/rand"
	"testing"
)

// stampCache is the original cache layout, kept as a test-only reference:
// each line carries a per-access LRU stamp, a miss fills any invalid way
// (else the least recently stamped one), and sets are separate slices.
type stampCache struct {
	sets    [][]stampLine
	setBits uint
	tick    uint64
	stats   Stats
}

type stampLine struct {
	tag   uint64
	valid bool
	dirty bool
	used  uint64 // LRU stamp
}

func newStampCache(cfg Config) *stampCache {
	nSets := cfg.SizeBytes / (cfg.Ways * LineBytes)
	sets := make([][]stampLine, nSets)
	for i := range sets {
		sets[i] = make([]stampLine, cfg.Ways)
	}
	return &stampCache{sets: sets, setBits: uint(bits.TrailingZeros(uint(nSets)))}
}

func (c *stampCache) Access(addr uint64, write bool) (hit bool, victimDirty bool, victimAddr uint64) {
	c.tick++
	lineAddr := addr / LineBytes
	set := lineAddr & ((1 << c.setBits) - 1)
	tag := lineAddr >> c.setBits
	ways := c.sets[set]
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].used = c.tick
			if write {
				ways[i].dirty = true
			}
			c.stats.Hits++
			return true, false, 0
		}
	}
	c.stats.Misses++
	vi := 0
	for i := range ways {
		if !ways[i].valid {
			vi = i
			goto fill
		}
		if ways[i].used < ways[vi].used {
			vi = i
		}
	}
	if ways[vi].dirty {
		victimDirty = true
		victimAddr = (ways[vi].tag<<c.setBits | set) * LineBytes
		c.stats.Writebacks++
	}
fill:
	ways[vi] = stampLine{tag: tag, valid: true, dirty: write, used: c.tick}
	return false, victimDirty, victimAddr
}

func (c *stampCache) Contains(addr uint64) bool {
	lineAddr := addr / LineBytes
	set := lineAddr & ((1 << c.setBits) - 1)
	tag := lineAddr >> c.setBits
	for _, w := range c.sets[set] {
		if w.valid && w.tag == tag {
			return true
		}
	}
	return false
}

// refGeometries are the shapes the reference comparisons run over: a
// single line, small and mid-size caches, the L1-D shape and a 16-way.
var refGeometries = []Config{
	{SizeBytes: 64, Ways: 1},        // 1 set x 1 way
	{SizeBytes: 1024, Ways: 2},      // 8 x 2
	{SizeBytes: 8192, Ways: 4},      // 32 x 4
	{SizeBytes: 64 << 10, Ways: 8},  // 128 x 8 (L1-D)
	{SizeBytes: 16 << 10, Ways: 16}, // 16 x 16
}

// TestCacheMatchesStampReference drives the recency-ordered cache and the
// stamp-based reference with the same seeded stream of reads and writes
// over four times each cache's capacity, so dirty evictions are common.
// Every Access result, the final Stats and residency of every touched
// line must agree. Halfway through, the cache is snapshotted, disturbed
// and restored, which must leave it on the reference's path.
func TestCacheMatchesStampReference(t *testing.T) {
	for gi, cfg := range refGeometries {
		c := MustNewCache(cfg)
		ref := newStampCache(cfg)
		nLines := 4 * cfg.SizeBytes / LineBytes
		rng := rand.New(rand.NewSource(int64(100 + gi)))
		const n = 60_000
		for i := 0; i < n; i++ {
			if i == n/2 {
				s := c.Snapshot()
				for j := 0; j < 500; j++ {
					c.Access(uint64(rng.Intn(nLines))*LineBytes, true)
				}
				if err := c.Restore(s); err != nil {
					t.Fatal(err)
				}
			}
			addr := uint64(rng.Intn(nLines))*LineBytes + uint64(rng.Intn(LineBytes))
			write := rng.Intn(3) == 0
			h, vd, va := c.Access(addr, write)
			rh, rvd, rva := ref.Access(addr, write)
			if h != rh || vd != rvd || va != rva {
				t.Fatalf("%d sets x %d ways, access %d (%#x, write=%v): got (%v, %v, %#x), reference (%v, %v, %#x)",
					len(ref.sets), cfg.Ways, i, addr, write, h, vd, va, rh, rvd, rva)
			}
		}
		if c.Stats() != ref.stats {
			t.Errorf("%d sets x %d ways: Stats = %+v, reference %+v", len(ref.sets), cfg.Ways, c.Stats(), ref.stats)
		}
		if ref.stats.Writebacks == 0 {
			t.Errorf("%d sets x %d ways: stream never evicted a dirty line", len(ref.sets), cfg.Ways)
		}
		for l := 0; l < nLines; l++ {
			addr := uint64(l) * LineBytes
			if c.Contains(addr) != ref.Contains(addr) {
				t.Fatalf("%d sets x %d ways: Contains(%#x) = %v, reference %v",
					len(ref.sets), cfg.Ways, addr, c.Contains(addr), ref.Contains(addr))
			}
		}
	}
}
