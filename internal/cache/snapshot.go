package cache

import (
	"fmt"
	"slices"
)

// CacheState is a deep copy of one cache's line words and counters, taken
// by Cache.Snapshot. Geometry (config, set count) is not carried: restore
// targets are built from the same configuration, and Restore checks the
// shapes match rather than trusting the caller.
type CacheState struct {
	wide   []uint64 // copy of Cache.wide
	narrow []uint32 // copy of Cache.narrow
	ways   int
	stats  Stats
}

// Snapshot deep-copies the cache contents and statistics.
func (c *Cache) Snapshot() *CacheState {
	return &CacheState{wide: slices.Clone(c.wide), narrow: slices.Clone(c.narrow), ways: c.cfg.Ways, stats: c.stats}
}

// Restore rewinds the cache to a snapshot taken from an identically
// configured cache. The snapshot stays valid for further restores.
func (c *Cache) Restore(s *CacheState) error {
	if len(s.wide) != len(c.wide) || len(s.narrow) != len(c.narrow) || s.ways != c.cfg.Ways {
		return fmt.Errorf("cache: restore geometry mismatch: snapshot %d lines x %d ways, cache %d lines x %d ways",
			len(s.wide)+len(s.narrow), s.ways, len(c.wide)+len(c.narrow), c.cfg.Ways)
	}
	copy(c.wide, s.wide)
	copy(c.narrow, s.narrow)
	c.stats = s.stats
	return nil
}

// HierarchyState is a deep copy of the whole memory system: every level's
// contents plus the inter-level traffic counters.
type HierarchyState struct {
	l1i, l1d, l2 *CacheState
	l1b          *CacheState // nil when no bounds cache configured
	traffic      Traffic
	dram         uint64
}

// Snapshot deep-copies the hierarchy.
func (h *Hierarchy) Snapshot() *HierarchyState {
	s := &HierarchyState{
		l1i:     h.L1I.Snapshot(),
		l1d:     h.L1D.Snapshot(),
		l2:      h.L2.Snapshot(),
		traffic: h.traffic,
		dram:    h.DRAMAccesses,
	}
	if h.L1B != nil {
		s.l1b = h.L1B.Snapshot()
	}
	return s
}

// Restore rewinds the hierarchy to a snapshot taken from an identically
// configured hierarchy (including L1-B presence).
func (h *Hierarchy) Restore(s *HierarchyState) error {
	if (h.L1B != nil) != (s.l1b != nil) {
		return fmt.Errorf("cache: restore mismatch: L1-B presence differs")
	}
	if err := h.L1I.Restore(s.l1i); err != nil {
		return fmt.Errorf("L1I: %w", err)
	}
	if err := h.L1D.Restore(s.l1d); err != nil {
		return fmt.Errorf("L1D: %w", err)
	}
	if err := h.L2.Restore(s.l2); err != nil {
		return fmt.Errorf("L2: %w", err)
	}
	if h.L1B != nil {
		if err := h.L1B.Restore(s.l1b); err != nil {
			return fmt.Errorf("L1B: %w", err)
		}
	}
	h.traffic = s.traffic
	h.DRAMAccesses = s.dram
	return nil
}
