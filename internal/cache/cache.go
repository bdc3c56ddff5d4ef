// Package cache models the memory hierarchy of the evaluation platform
// (Table IV): private L1 instruction/data caches, the optional AOS L1
// bounds cache (L1-B, §V-F1), a shared L2, and DRAM. Caches are
// set-associative with true LRU replacement and write-back/write-allocate
// policy.
//
// The hierarchy tracks the byte traffic between levels, which is what the
// paper's Fig 18 reports, and per-cache hit/miss statistics, which drive
// the cache-pollution analysis behind Fig 15.
package cache

import (
	"fmt"
	"math"
	"math/bits"

	"aos/internal/pa"
)

// LineBytes is the cache line size used throughout (Table IV).
const LineBytes = 64

// Config describes one cache.
type Config struct {
	// SizeBytes is the total capacity.
	SizeBytes int
	// Ways is the set associativity.
	Ways int
	// Latency is the access latency in cycles.
	Latency int
}

// Stats counts cache events.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Writebacks uint64 // dirty evictions
}

// MissRate returns misses/(hits+misses), or 0 for an untouched cache.
func (s Stats) MissRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Misses) / float64(t)
}

// Cache is one set-associative cache level. Each line is one word,
// (tag+1)<<1 | dirty, with 0 meaning invalid, and each set's words are
// kept most recently used first: a hit moves its line to the front, a
// miss drops the set's last word and inserts at the front. Invalid words
// therefore always form a suffix of their set, and the last word is the
// true-LRU victim once the set is full (DESIGN.md §10.6).
//
// The word's width follows the geometry: a level keeps uint32 words when
// every address below 2^pa.VABits makes a word that fits, which takes at
// least 1,024 sets (the L2), and uint64 words otherwise (the L1s). A
// 32-bit level panics on an address at or above 2^pa.VABits rather than
// alias another line.
type Cache struct {
	cfg Config
	// wide and narrow hold the words, [set*ways+way], each set most
	// recently used first. Exactly one is non-nil: narrow on a 32-bit
	// level, wide otherwise.
	wide    []uint64
	narrow  []uint32
	setBits uint
	stats   Stats
}

// word is the storage type of a level's line words.
type word interface{ uint32 | uint64 }

// maxWord is the largest word an address below 2^pa.VABits makes in a
// level with 2^setBits sets: the largest tag plus one, over the dirty bit.
func maxWord(setBits uint) uint64 {
	return (1<<pa.VABits/LineBytes)>>setBits<<1 | 1
}

// NewCache builds a cache from cfg. Sets must come out a power of two.
func NewCache(cfg Config) (*Cache, error) {
	if cfg.SizeBytes <= 0 || cfg.Ways <= 0 {
		return nil, fmt.Errorf("cache: invalid config %+v", cfg)
	}
	nSets := cfg.SizeBytes / (cfg.Ways * LineBytes)
	if nSets == 0 || nSets&(nSets-1) != 0 {
		return nil, fmt.Errorf("cache: %d sets (size %d, ways %d) not a power of two",
			nSets, cfg.SizeBytes, cfg.Ways)
	}
	c := &Cache{cfg: cfg, setBits: uint(bits.TrailingZeros(uint(nSets)))}
	if maxWord(c.setBits) <= math.MaxUint32 {
		c.narrow = make([]uint32, nSets*cfg.Ways)
	} else {
		c.wide = make([]uint64, nSets*cfg.Ways)
	}
	return c, nil
}

// MustNewCache is NewCache or panic, for configuration literals.
func MustNewCache(cfg Config) *Cache {
	c, err := NewCache(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// Latency returns the configured access latency.
func (c *Cache) Latency() int { return c.cfg.Latency }

// locate returns the index of the first word of addr's set, the set's
// index, and the word addr's line has when clean. On a 32-bit level it
// panics on an address whose word would not fit.
func (c *Cache) locate(addr uint64) (first int, setIdx, key uint64) {
	if c.narrow != nil && addr>>pa.VABits != 0 {
		panic(beyondVA(addr)) //aoslint:allow hotpathalloc — cold: the panic ends the run
	}
	lineAddr := addr / LineBytes
	setIdx = lineAddr & ((1 << c.setBits) - 1)
	return int(setIdx) * c.cfg.Ways, setIdx, (lineAddr>>c.setBits + 1) << 1
}

// beyondVA is the panic of a 32-bit level given an address its words
// cannot hold.
type beyondVA uint64

func (a beyondVA) Error() string {
	return fmt.Sprintf("cache: address %#x is beyond the %d-bit address space of a 32-bit level", uint64(a), pa.VABits)
}

// Access looks up the line containing addr, allocating it on miss. write
// marks the line dirty. It reports whether the access hit, and whether the
// allocation evicted a dirty victim (whose line address is returned for
// write-back accounting).
func (c *Cache) Access(addr uint64, write bool) (hit bool, victimDirty bool, victimAddr uint64) {
	first, setIdx, key := c.locate(addr)
	var dirty uint64
	if write {
		dirty = 1
	}
	if c.narrow != nil {
		return access(c, c.narrow[first:first+c.cfg.Ways], setIdx, uint32(key), uint32(dirty))
	}
	return access(c, c.wide[first:first+c.cfg.Ways], setIdx, key, dirty)
}

// access is Access on one set's words: a hit moves key's line to the
// front, ORing in dirty; a miss drops the set's last word (invalid while
// the set has room, else the LRU line) and inserts key|dirty at the front.
func access[W word](c *Cache, set []W, setIdx uint64, key, dirty W) (hit bool, victimDirty bool, victimAddr uint64) {
	for i, w := range set {
		if w&^1 == key {
			copy(set[1:i+1], set[:i])
			set[0] = w | dirty
			c.stats.Hits++
			return true, false, 0
		}
	}
	c.stats.Misses++
	if v := set[len(set)-1]; v&1 != 0 {
		victimDirty = true
		victimAddr = (uint64(v>>1-1)<<c.setBits | setIdx) * LineBytes
		c.stats.Writebacks++
	}
	copy(set[1:], set)
	set[0] = key | dirty
	return false, victimDirty, victimAddr
}

// Contains reports whether addr's line is resident (no state change).
func (c *Cache) Contains(addr uint64) bool {
	first, _, key := c.locate(addr)
	if c.narrow != nil {
		return holds(c.narrow[first:first+c.cfg.Ways], uint32(key))
	}
	return holds(c.wide[first:first+c.cfg.Ways], key)
}

// holds reports whether one set's words include key's line.
func holds[W word](set []W, key W) bool {
	for _, w := range set {
		if w&^1 == key {
			return true
		}
	}
	return false
}

// ResetStats clears the hit/miss counters without touching cache contents
// (for warmup-then-measure methodology).
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Traffic tallies the bytes moved between hierarchy levels (Fig 18).
type Traffic struct {
	// L1ToL2 is bytes moved between the private L1s and the L2 (fills and
	// write-backs, both directions).
	L1ToL2 uint64
	// L2ToDRAM is bytes moved between the L2 and memory.
	L2ToDRAM uint64
}

// Total is the paper's "network traffic" metric: all inter-level bytes.
func (t Traffic) Total() uint64 { return t.L1ToL2 + t.L2ToDRAM }

// HierarchyConfig configures the full memory system. BCache nil disables
// the bounds cache (bounds then share the L1-D, the Fig 15 "no
// optimization" configuration).
type HierarchyConfig struct {
	L1I, L1D Config
	L1B      *Config
	L2       Config
	// DRAMLatency is the post-L2 miss penalty in cycles.
	DRAMLatency int
}

// DefaultConfig returns the Table IV platform: 32KB/4-way L1-I, 64KB/8-way
// L1-D, 32KB/4-way L1-B, 8MB/16-way L2, 100-cycle DRAM (50 ns at 2 GHz).
func DefaultConfig() HierarchyConfig {
	return HierarchyConfig{
		L1I:         Config{SizeBytes: 32 << 10, Ways: 4, Latency: 1},
		L1D:         Config{SizeBytes: 64 << 10, Ways: 8, Latency: 1},
		L1B:         &Config{SizeBytes: 32 << 10, Ways: 4, Latency: 1},
		L2:          Config{SizeBytes: 8 << 20, Ways: 16, Latency: 8},
		DRAMLatency: 100,
	}
}

// Hierarchy is the assembled memory system.
type Hierarchy struct {
	L1I, L1D *Cache
	L1B      *Cache // nil when the bounds cache is disabled
	L2       *Cache
	dramLat  int
	traffic  Traffic

	// DRAMAccesses counts L2 misses (for bandwidth sanity checks).
	DRAMAccesses uint64
}

// NewHierarchy builds the hierarchy from cfg.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	l1i, err := NewCache(cfg.L1I)
	if err != nil {
		return nil, fmt.Errorf("L1I: %w", err)
	}
	l1d, err := NewCache(cfg.L1D)
	if err != nil {
		return nil, fmt.Errorf("L1D: %w", err)
	}
	var l1b *Cache
	if cfg.L1B != nil {
		if l1b, err = NewCache(*cfg.L1B); err != nil {
			return nil, fmt.Errorf("L1B: %w", err)
		}
	}
	l2, err := NewCache(cfg.L2)
	if err != nil {
		return nil, fmt.Errorf("L2: %w", err)
	}
	return &Hierarchy{L1I: l1i, L1D: l1d, L1B: l1b, L2: l2, dramLat: cfg.DRAMLatency}, nil
}

// Traffic returns the inter-level byte counters.
func (h *Hierarchy) Traffic() Traffic { return h.traffic }

// ResetStats clears every statistic while keeping cache contents warm.
func (h *Hierarchy) ResetStats() {
	h.traffic = Traffic{}
	h.DRAMAccesses = 0
	h.L1I.ResetStats()
	h.L1D.ResetStats()
	if h.L1B != nil {
		h.L1B.ResetStats()
	}
	h.L2.ResetStats()
}

// HasBoundsCache reports whether a dedicated L1-B is present.
func (h *Hierarchy) HasBoundsCache() bool { return h.L1B != nil }

// accessThrough performs an access at l1 backed by the shared L2 and DRAM,
// returning the total latency.
func (h *Hierarchy) accessThrough(l1 *Cache, addr uint64, write bool) int {
	lat := l1.Latency()
	hit, vd, va := l1.Access(addr, write)
	if vd {
		// Dirty L1 victim written back into L2.
		h.traffic.L1ToL2 += LineBytes
		_, l2vd, _ := h.L2.Access(va, true)
		if l2vd {
			h.traffic.L2ToDRAM += LineBytes
		}
	}
	if hit {
		return lat
	}
	// L1 fill from L2.
	h.traffic.L1ToL2 += LineBytes
	lat += h.L2.Latency()
	l2hit, l2vd, _ := h.L2.Access(addr, false)
	if l2vd {
		h.traffic.L2ToDRAM += LineBytes
	}
	if !l2hit {
		h.traffic.L2ToDRAM += LineBytes
		h.DRAMAccesses++
		lat += h.dramLat
	}
	return lat
}

// AccessData performs a program load/store and returns its latency.
func (h *Hierarchy) AccessData(addr uint64, write bool) int {
	return h.accessThrough(h.L1D, addr, write)
}

// AccessBounds performs a bounds-metadata access. With an L1-B configured,
// bounds bypass the L1-D entirely (§V-F1: "we store all bounds metadata in
// the L1 B-cache, instead of in the L1 D-cache; the rest of the cache
// hierarchy remains the same").
func (h *Hierarchy) AccessBounds(addr uint64, write bool) int {
	if h.L1B != nil {
		return h.accessThrough(h.L1B, addr, write)
	}
	return h.accessThrough(h.L1D, addr, write)
}

// FetchInst performs an instruction fetch.
func (h *Hierarchy) FetchInst(addr uint64) int {
	return h.accessThrough(h.L1I, addr, false)
}

// AddBulkTraffic charges DMA-style traffic (e.g. HBT migration) that moves
// bytes below the L1s.
func (h *Hierarchy) AddBulkTraffic(bytes uint64) {
	h.traffic.L2ToDRAM += bytes
}
