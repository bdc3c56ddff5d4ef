package cache

import (
	"math/bits"
	"math/rand"
	"testing"

	"aos/internal/pa"
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
// single line, small and mid-size caches, the L1-D shape, a 16-way, and
// two levels with 32-bit words: the fewest sets that keep them, and the
// L2.
var refGeometries = []Config{
	{SizeBytes: 64, Ways: 1},        // 1 set x 1 way
	{SizeBytes: 1024, Ways: 2},      // 8 x 2
	{SizeBytes: 8192, Ways: 4},      // 32 x 4
	{SizeBytes: 64 << 10, Ways: 8},  // 128 x 8 (L1-D)
	{SizeBytes: 16 << 10, Ways: 16}, // 16 x 16
	{SizeBytes: 256 << 10, Ways: 4}, // 1024 x 4 (32-bit words)
	{SizeBytes: 8 << 20, Ways: 16},  // 8192 x 16 (the L2, 32-bit words)
}

// checkAccess performs access i on the cache and the reference and fails
// unless both return the same result.
func checkAccess(t testing.TB, c *Cache, ref *stampCache, i int, addr uint64, write bool) {
	t.Helper()
	h, vd, va := c.Access(addr, write)
	rh, rvd, rva := ref.Access(addr, write)
	if h != rh || vd != rvd || va != rva {
		t.Fatalf("%d sets x %d ways, access %d (%#x, write=%v): got (%v, %v, %#x), reference (%v, %v, %#x)",
			len(ref.sets), len(ref.sets[0]), i, addr, write, h, vd, va, rh, rvd, rva)
	}
}

// checkEnd fails unless the cache and the reference agree on Stats and on
// the residency of every address in addrs.
func checkEnd(t testing.TB, c *Cache, ref *stampCache, addrs []uint64) {
	t.Helper()
	if c.Stats() != ref.stats {
		t.Errorf("%d sets x %d ways: Stats = %+v, reference %+v", len(ref.sets), len(ref.sets[0]), c.Stats(), ref.stats)
	}
	for _, addr := range addrs {
		if c.Contains(addr) != ref.Contains(addr) {
			t.Fatalf("%d sets x %d ways: Contains(%#x) = %v, reference %v",
				len(ref.sets), len(ref.sets[0]), addr, c.Contains(addr), ref.Contains(addr))
		}
	}
}

// spreadLines returns n line numbers across the whole address space
// (below 2^pa.VABits) of a cache with nSets sets: every other one has a
// uniform tag, and the rest are in a uniform set with one of the ways+1
// largest tags, so the widest words occur and evict each other.
func spreadLines(n, nSets, ways int, rng *rand.Rand) []uint64 {
	setBits := uint(bits.TrailingZeros(uint(nSets)))
	tags := int64(1) << (pa.VABits - 6 - setBits)
	lines := make([]uint64, n)
	for l := range lines {
		tag := rng.Int63n(tags)
		if l%2 == 1 {
			tag = tags - 1 - rng.Int63n(int64(ways)+1)
		}
		lines[l] = uint64(tag)<<setBits | uint64(rng.Intn(nSets))
	}
	return lines
}

// TestCacheMatchesStampReference drives the recency-ordered cache and the
// stamp-based reference with the same seeded stream of reads and writes
// over four times each cache's capacity, so dirty evictions are common.
// Every Access result, the final Stats and residency of every touched
// line must agree. Halfway through, the cache is snapshotted, disturbed
// and restored, which must leave it on the reference's path. Each
// geometry runs twice: over the first lines of the address space, and
// over lines spread across all of it (spreadLines), where the tags are as
// wide as a 46-bit address makes them.
func TestCacheMatchesStampReference(t *testing.T) {
	for gi, cfg := range refGeometries {
		for _, spread := range []bool{false, true} {
			c := MustNewCache(cfg)
			ref := newStampCache(cfg)
			nLines := 4 * cfg.SizeBytes / LineBytes
			lines := make([]uint64, nLines)
			for l := range lines {
				lines[l] = uint64(l)
			}
			seed := int64(100 + gi)
			if spread {
				lines = spreadLines(nLines, len(ref.sets), cfg.Ways, rand.New(rand.NewSource(seed)))
				seed += 100
			}
			rng := rand.New(rand.NewSource(seed))
			n := max(60_000, nLines)
			for i := 0; i < n; i++ {
				if i == n/2 {
					s := c.Snapshot()
					for j := 0; j < 500; j++ {
						c.Access(lines[rng.Intn(nLines)]*LineBytes, true)
					}
					if err := c.Restore(s); err != nil {
						t.Fatal(err)
					}
				}
				addr := lines[rng.Intn(nLines)]*LineBytes + uint64(rng.Intn(LineBytes))
				checkAccess(t, c, ref, i, addr, rng.Intn(3) == 0)
			}
			if ref.stats.Writebacks == 0 {
				t.Errorf("%d sets x %d ways (spread %v): stream never evicted a dirty line", len(ref.sets), cfg.Ways, spread)
			}
			for l := range lines {
				lines[l] *= LineBytes
			}
			checkEnd(t, c, ref, lines)
		}
	}
}

// FuzzCache drives a cache of a fuzzed geometry (2^0-2^13 sets, 1-16
// ways) and the stamp reference with a fuzzed script of accesses across
// [0, 2^pa.VABits), moving the cache into a fresh one through Snapshot
// and Restore halfway. Every Access result, the final Stats and the
// residency of every address touched must agree. A script is a run of
// operations, each a byte whose low bit is the write flag and whose next
// two bits pick the address: six more bytes of a new one, an address
// already touched (one more byte picks it), or one in the set of one of
// the 32 addresses touched last (the op's top five bits pick it) with a
// new tag near the top of the tag range or near its bottom (one more
// byte).
func FuzzCache(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for _, g := range [][2]uint8{{0, 0}, {3, 1}, {7, 7}, {9, 15}, {10, 3}, {13, 15}} {
		script := make([]byte, 1500)
		rng.Read(script)
		f.Add(g[0], g[1], script)
	}
	f.Fuzz(func(t *testing.T, setBits, ways uint8, script []byte) {
		setBits %= 14
		nWays := int(ways%16) + 1
		cfg := Config{SizeBytes: nWays * LineBytes << setBits, Ways: nWays}
		c, ref := MustNewCache(cfg), newStampCache(cfg)
		if len(script) > 4096 {
			script = script[:4096]
		}
		tags := uint64(1) << (pa.VABits - 6 - uint(setBits))
		tagMask := (tags - 1) << (6 + setBits)
		var touched []uint64
		for i, half := 0, len(script)/2; len(script) > 0; i++ {
			if half > 0 && len(script) <= half {
				d := MustNewCache(cfg)
				if err := d.Restore(c.Snapshot()); err != nil {
					t.Fatal(err)
				}
				c, half = d, 0
			}
			op, arg := script[0], script[1:]
			var addr uint64
			switch mode := op >> 1 & 3; {
			case mode == 0 && len(arg) >= 6:
				for k := 5; k >= 0; k-- {
					addr = addr<<8 | uint64(arg[k])
				}
				addr &= 1<<pa.VABits - 1
				script = arg[6:]
			case mode == 1 && len(touched) > 0 && len(arg) >= 1:
				addr = touched[int(arg[0])%len(touched)]
				script = arg[1:]
			case mode >= 2 && len(touched) > 0 && len(arg) >= 1:
				prev := touched[len(touched)-1-int(op>>3)%len(touched)]
				tag := uint64(arg[0]) % tags
				if mode == 2 {
					tag = tags - 1 - tag
				}
				addr = prev&^tagMask | tag<<(6+setBits)
				script = arg[1:]
			default:
				script = arg
				continue
			}
			touched = append(touched, addr)
			checkAccess(t, c, ref, i, addr, op&1 != 0)
		}
		checkEnd(t, c, ref, touched)
	})
}
