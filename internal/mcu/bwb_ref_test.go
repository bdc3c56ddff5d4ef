package mcu

import (
	"math/rand"
	"testing"
)

// stampBWB is the original bounds way buffer, kept as a test-only
// reference: entries carry a per-operation LRU stamp and Update fills any
// invalid entry, else the least recently stamped one.
type stampBWB struct {
	entries [BWBEntries]stampEntry
	tick    uint64
	stats   BWBStats
}

type stampEntry struct {
	tag   uint32
	way   uint8
	valid bool
	used  uint64 // LRU stamp
}

func (b *stampBWB) Lookup(tag uint32) (way int, ok bool) {
	b.tick++
	for i := range b.entries {
		e := &b.entries[i]
		if e.valid && e.tag == tag {
			e.used = b.tick
			b.stats.Hits++
			return int(e.way), true
		}
	}
	b.stats.Misses++
	return 0, false
}

func (b *stampBWB) Update(tag uint32, way int) {
	b.tick++
	vi := 0
	for i := range b.entries {
		e := &b.entries[i]
		if e.valid && e.tag == tag {
			e.way = uint8(way)
			e.used = b.tick
			return
		}
		if !e.valid {
			vi = i
		} else if b.entries[vi].valid && e.used < b.entries[vi].used {
			vi = i
		}
	}
	b.entries[vi] = stampEntry{tag: tag, way: uint8(way), valid: true, used: b.tick}
}

func (b *stampBWB) Invalidate() {
	for i := range b.entries {
		b.entries[i].valid = false
	}
}

// TestBWBMatchesStampReference drives the recency-ordered buffer and the
// stamp-based reference with the same seeded stream over 96 tags (tag 0
// and 0xFFFFFFFF among them, so more tags than entries) and ways 0-63:
// lookups, updates after a hit or a miss, bare updates, and an occasional
// Invalidate. Every Lookup result and the final Stats must agree.
func TestBWBMatchesStampReference(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	tags := []uint32{0, 0xFFFFFFFF}
	for len(tags) < 96 {
		tags = append(tags, rng.Uint32())
	}
	b, ref := NewBWB(), &stampBWB{}
	invalidates := 0
	for i := 0; i < 200_000; i++ {
		// Skewed: a third of the operations hit the first 16 tags.
		tag := tags[rng.Intn(len(tags))]
		if rng.Intn(3) == 0 {
			tag = tags[rng.Intn(16)]
		}
		way := rng.Intn(64)
		switch op := rng.Intn(2000); {
		case op == 0:
			b.Invalidate()
			ref.Invalidate()
			invalidates++
		case op < 1400:
			w, ok := b.Lookup(tag)
			rw, rok := ref.Lookup(tag)
			if w != rw || ok != rok {
				t.Fatalf("op %d: Lookup(%#x) = (%d, %v), reference (%d, %v)", i, tag, w, ok, rw, rok)
			}
			if rng.Intn(4) != 0 {
				b.Update(tag, way)
				ref.Update(tag, way)
			}
		default:
			b.Update(tag, way)
			ref.Update(tag, way)
		}
	}
	if invalidates == 0 {
		t.Error("stream never invalidated the buffer")
	}
	if b.Stats() != ref.stats {
		t.Errorf("Stats = %+v, reference %+v", b.Stats(), ref.stats)
	}
}

// BenchmarkBWB is one Lookup plus Update per operation over a skewed tag
// stream: mostly repeats from a hot set that fits the buffer, plus a
// fifth fresh tags that miss and evict.
func BenchmarkBWB(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	stream := make([]uint32, 4096)
	fresh := uint32(1 << 20)
	for i := range stream {
		if rng.Intn(5) == 0 {
			fresh++
			stream[i] = fresh
		} else {
			stream[i] = uint32(rng.Intn(48))
		}
	}
	bwb := NewBWB()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tag := stream[i&(len(stream)-1)]
		w, ok := bwb.Lookup(tag)
		if !ok {
			w = i & 3
		}
		bwb.Update(tag, w)
	}
}
