package heap

import "math/bits"

// ChunkTable maps nonzero chunk addresses to uint64 values. It holds the
// per-chunk bookkeeping a checkpoint copies (the allocator's live sizes,
// Watchdog's lock locations) in one flat slot slice, so a snapshot copies
// it with one allocation and a restore copies it into the target's own
// slots without rehashing a key.
//
// The slot count is a power of two, and the table doubles before it
// passes half full. A key's home slot is the top bits of a Fibonacci hash
// of addr>>4 (chunk addresses are 16-byte aligned, so the low four bits
// carry nothing); collisions probe linearly, and Delete shifts the rest of
// the probe run back over the hole, so no tombstones are needed. Key 0
// marks an empty slot. The table has no iteration API: its slot order is
// a hashing artifact nothing may observe. The zero value is an empty
// table.
type ChunkTable struct {
	slots []chunkSlot
	n     int  // keys present
	shift uint // 64 - log2(len(slots))
}

type chunkSlot struct{ key, val uint64 }

const (
	// minChunkSlots is the slot count of a table's first allocation.
	minChunkSlots = 16
	// fibHash is 2^64 divided by the golden ratio.
	fibHash = 0x9E3779B97F4A7C15
)

// home returns key's first probe slot.
func (t *ChunkTable) home(key uint64) int {
	return int((key >> 4) * fibHash >> t.shift)
}

// Get returns key's value and whether key is present. Key 0 is never
// present.
func (t *ChunkTable) Get(key uint64) (uint64, bool) {
	if t.n == 0 {
		return 0, false
	}
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.key == 0 {
			return 0, false
		}
		if s.key == key {
			return s.val, true
		}
	}
}

// Set maps key, which must be nonzero, to val.
func (t *ChunkTable) Set(key, val uint64) {
	if key == 0 {
		panic("heap: ChunkTable key 0")
	}
	if len(t.slots) == 0 {
		t.resize(minChunkSlots)
	}
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.key == key {
			s.val = val
			return
		}
		if s.key == 0 {
			if 2*(t.n+1) > len(t.slots) {
				t.resize(2 * len(t.slots))
				t.insertNew(key, val)
			} else {
				*s = chunkSlot{key, val}
			}
			t.n++
			return
		}
	}
}

// Delete removes key if present. The entries after it in its probe run
// move back one at a time into the hole, each as far as its home slot
// allows, so every key stays reachable from its home without tombstones.
func (t *ChunkTable) Delete(key uint64) {
	if t.n == 0 {
		return
	}
	mask := len(t.slots) - 1
	hole := t.home(key)
	for {
		k := t.slots[hole].key
		if k == 0 {
			return // absent
		}
		if k == key {
			break
		}
		hole = (hole + 1) & mask
	}
	for j := (hole + 1) & mask; t.slots[j].key != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole unless its home lies
		// cyclically in (hole, j], where it would be probed past.
		if (j-t.home(t.slots[j].key))&mask >= (j-hole)&mask {
			t.slots[hole] = t.slots[j]
			hole = j
		}
	}
	t.slots[hole] = chunkSlot{}
	t.n--
}

// Clone returns a copy of t that shares no storage with it.
func (t *ChunkTable) Clone() ChunkTable {
	c := *t
	c.slots = append([]chunkSlot(nil), t.slots...)
	return c
}

// CopyFrom makes t a copy of src. It copies src's slots into t's own slot
// slice when that slice can hold them, so restoring a table no larger
// than the one it replaces allocates nothing.
func (t *ChunkTable) CopyFrom(src *ChunkTable) {
	slots := t.slots
	*t = *src
	t.slots = append(slots[:0], src.slots...)
}

// resize moves every entry into a fresh slice of n slots, n a power of
// two.
func (t *ChunkTable) resize(n int) {
	old := t.slots
	t.slots = make([]chunkSlot, n)
	t.shift = uint(65 - bits.Len(uint(n)))
	for _, s := range old {
		if s.key != 0 {
			t.insertNew(s.key, s.val)
		}
	}
}

// insertNew places a key known to be absent, with room to spare; it does
// not count it.
func (t *ChunkTable) insertNew(key, val uint64) {
	mask := len(t.slots) - 1
	i := t.home(key)
	for t.slots[i].key != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = chunkSlot{key, val}
}
