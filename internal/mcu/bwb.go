// Package mcu implements AOS's memory check unit (§V-A): the memory check
// queue (MCQ) with its two finite state machines (Fig 8), the bounds way
// buffer (BWB, §V-C) with the tag construction of Algorithm 2, the
// store-load replay mechanism (§V-E), and bounds forwarding (§V-F2).
package mcu

import "aos/internal/pa"

// BWBTag implements Algorithm 2: the 32-bit tag is the PAC concatenated
// with 14 pointer-address bits chosen by the AHC (so that every address
// inside one memory chunk yields the same tag) and the 2-bit AHC.
func BWBTag(addr uint64, ahc uint8, pac uint16) uint32 {
	var bits uint64
	switch ahc {
	case pa.AHCSmall:
		bits = (addr >> 7) & 0x3FFF // Addr[20:7]
	case pa.AHCMedium:
		bits = (addr >> 10) & 0x3FFF // Addr[23:10]
	default:
		bits = (addr >> 12) & 0x3FFF // Addr[25:12]
	}
	return uint32(pac)<<16 | uint32(bits)<<2 | uint32(ahc&3)
}

// BWBEntries is the buffer capacity (Table IV).
const BWBEntries = 64

// BWBStats counts buffer outcomes (Fig 17 reports the hit rate).
type BWBStats struct {
	Hits   uint64
	Misses uint64
}

// Delta returns the counter advance since a previous snapshot
// (window arithmetic for cycle-sampled telemetry).
func (s BWBStats) Delta(prev BWBStats) BWBStats {
	return BWBStats{Hits: s.Hits - prev.Hits, Misses: s.Misses - prev.Misses}
}

// Lookups returns the total number of buffer probes.
func (s BWBStats) Lookups() uint64 { return s.Hits + s.Misses }

// HitRate returns hits/(hits+misses).
func (s BWBStats) HitRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Hits) / float64(t)
}

// BWB is the bounds way buffer: a small fully-associative LRU cache from
// tag to the HBT way where that chunk's bounds were last found, so bounds
// checking can skip the way-0-first search. Each entry is one word,
// bwbValid | tag<<8 | way, with 0 meaning empty, and entries are kept most
// recently used first, so empty entries form a suffix and the last entry
// is always the victim (DESIGN.md §10.6).
type BWB struct {
	entries [BWBEntries]uint64
	stats   BWBStats
}

// bwbValid marks a filled entry; it sits above the 32-bit tag.
const bwbValid = 1 << 40

// bwbKey is an entry word for tag with the way bits clear.
func bwbKey(tag uint32) uint64 { return bwbValid | uint64(tag)<<8 }

// NewBWB returns an empty buffer.
func NewBWB() *BWB { return &BWB{} }

// Stats returns a copy of the counters.
func (b *BWB) Stats() BWBStats { return b.stats }

// ResetStats clears the counters, keeping the buffer contents.
func (b *BWB) ResetStats() { b.stats = BWBStats{} }

// find returns tag's entry index, or -1.
func (b *BWB) find(tag uint32) int {
	key := bwbKey(tag)
	for i, e := range b.entries[:] {
		if e&^0xFF == key {
			return i
		}
	}
	return -1
}

// promote moves entry i to the front as e, shifting the more recent
// entries back by one (entry i's old value, or the last, falls off).
func (b *BWB) promote(i int, e uint64) {
	copy(b.entries[1:i+1], b.entries[:i])
	b.entries[0] = e
}

// Lookup returns the remembered way for tag. Misses are counted; the
// caller then starts its search from way 0.
func (b *BWB) Lookup(tag uint32) (way int, ok bool) {
	i := b.find(tag)
	if i < 0 {
		b.stats.Misses++
		return 0, false
	}
	e := b.entries[i]
	b.promote(i, e)
	b.stats.Hits++
	return int(e & 0xFF), true
}

// Update records the way where a bounds operation last found (or stored)
// valid bounds. Called when an instruction retires from the MCQ.
func (b *BWB) Update(tag uint32, way int) {
	i := b.find(tag)
	if i < 0 {
		i = BWBEntries - 1
	}
	b.promote(i, bwbKey(tag)|uint64(uint8(way)))
}

// Invalidate drops every entry (used after an HBT resize, when remembered
// ways may no longer be meaningful).
func (b *BWB) Invalidate() { b.entries = [BWBEntries]uint64{} }
