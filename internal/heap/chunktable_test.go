package heap

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// tableKey is the k-th chunk address the table tests use: 16 bytes apart,
// like the payload pointers of adjacent minimum-size chunks.
func tableKey(k uint64) uint64 { return testBase + 16*(k+1) }

// checkAgainst fails unless t holds exactly ref's entries among keys.
func checkAgainst(tb testing.TB, t *ChunkTable, ref map[uint64]uint64, keys []uint64) {
	tb.Helper()
	for _, k := range keys {
		got, ok := t.Get(k)
		want, wantOK := ref[k]
		if got != want || ok != wantOK {
			tb.Fatalf("Get(%#x) = %d, %v; want %d, %v", k, got, ok, want, wantOK)
		}
	}
	if t.n != len(ref) {
		tb.Fatalf("table counts %d keys, want %d", t.n, len(ref))
	}
}

// wrapsPastEnd reports whether the probe run holding key continues past
// the last slot into slot 0, so deleting key shifts entries across the
// end of the slot slice.
func wrapsPastEnd(t *ChunkTable, key uint64) bool {
	mask := len(t.slots) - 1
	i := t.home(key)
	for t.slots[i].key != key {
		i = (i + 1) & mask
	}
	for ; t.slots[i].key != 0; i = (i + 1) & mask {
		if i == mask {
			return t.slots[0].key != 0
		}
	}
	return false
}

// TestChunkTableMatchesMap runs random Set/Get/Delete sequences against a
// Go map over three key sets: 16 keys whose hashes' top four bits are all
// ones or all zeros, so at every table size they home in the first or
// last slots and their probe runs keep wrapping past the end; 100
// consecutive keys; and 8,192 consecutive keys, which double the table
// from 16 to 16,384 slots. Each ends by deleting every key.
func TestChunkTableMatchesMap(t *testing.T) {
	var edge, consecutive []uint64
	for k := uint64(0); len(edge) < 16; k++ {
		if top := (tableKey(k) >> 4) * fibHash >> 60; top == 0 || top == 15 {
			edge = append(edge, tableKey(k))
		}
	}
	for k := uint64(0); k < 8192; k++ {
		consecutive = append(consecutive, tableKey(k))
	}
	rng := rand.New(rand.NewSource(1))
	wrapped := 0
	for _, tc := range []struct {
		keys  []uint64
		steps int
	}{{edge, 20_000}, {consecutive[:100], 50_000}, {consecutive, 200_000}} {
		var tab ChunkTable
		ref := map[uint64]uint64{}
		keys := tc.keys
		for step := 0; step < tc.steps; step++ {
			// The key range widens with time so the table keeps growing;
			// deletes stay frequent enough that probe runs are rebuilt.
			k := keys[rng.Intn(min(len(keys), 16+step*len(keys)/(tc.steps*3/4)))]
			switch op := rng.Intn(10); {
			case op < 5:
				v := rng.Uint64()
				tab.Set(k, v)
				ref[k] = v
			case op < 8:
				if _, ok := ref[k]; ok && wrapsPastEnd(&tab, k) {
					wrapped++
				}
				tab.Delete(k)
				delete(ref, k)
			default:
				got, ok := tab.Get(k)
				if want, wantOK := ref[k]; got != want || ok != wantOK {
					t.Fatalf("%d keys, step %d: Get(%#x) = %d, %v; want %d, %v", len(keys), step, k, got, ok, want, wantOK)
				}
			}
			if step%(tc.steps/10) == 0 {
				checkAgainst(t, &tab, ref, keys)
			}
		}
		checkAgainst(t, &tab, ref, keys)
		if len(keys) == 8192 && len(tab.slots) != 16384 {
			t.Errorf("table grew to %d slots, want 16384", len(tab.slots))
		}
		for _, k := range keys {
			tab.Delete(k)
			delete(ref, k)
		}
		checkAgainst(t, &tab, ref, keys)
		if _, ok := tab.Get(0); ok {
			t.Error("Get(0) found a key")
		}
	}
	if wrapped < 500 {
		t.Errorf("only %d deletions' probe runs wrapped past the end of the slots", wrapped)
	}
}

// TestChunkTableDeleteWrapsPastEnd deletes the head of a probe run that
// starts in the last slot and continues at slot 0: entries homed at the
// last slot move back across the end, entries homed at slot 0 or later
// stay unless a gap opens after their home.
func TestChunkTableDeleteWrapsPastEnd(t *testing.T) {
	var probe ChunkTable
	probe.resize(minChunkSlots)
	last := minChunkSlots - 1
	byHome := map[int][]uint64{}
	for k := uint64(0); len(byHome[last]) < 3 || len(byHome[0]) < 2 || len(byHome[1]) < 1; k++ {
		h := probe.home(tableKey(k))
		byHome[h] = append(byHome[h], tableKey(k))
	}
	l0, l1, l2 := byHome[last][0], byHome[last][1], byHome[last][2]
	z0, z1, o0 := byHome[0][0], byHome[0][1], byHome[1][0]
	for _, tc := range []struct {
		name     string
		fill     []uint64 // inserted in order; l0 takes the last slot
		wantLast uint64   // the key in the last slot after deleting l0
	}{
		{"every entry shifts back", []uint64{l0, l1, z0, o0}, l1},
		{"entries homed at slot 0 stay", []uint64{l0, z0, z1}, 0},
		{"a home-last entry passes one that stays", []uint64{l0, z0, l1, l2}, l1},
	} {
		var tab ChunkTable
		ref := map[uint64]uint64{}
		for i, k := range tc.fill {
			tab.Set(k, uint64(i+1))
			ref[k] = uint64(i + 1)
		}
		if len(tab.slots) != minChunkSlots || tab.slots[last].key != l0 || !wrapsPastEnd(&tab, l0) {
			t.Fatalf("%s: the run does not start in the last slot and wrap", tc.name)
		}
		tab.Delete(l0)
		delete(ref, l0)
		checkAgainst(t, &tab, ref, tc.fill)
		if got := tab.slots[last].key; got != tc.wantLast {
			t.Errorf("%s: last slot holds %#x, want %#x", tc.name, got, tc.wantLast)
		}
	}
}

// TestChunkTableCopies: a clone shares no slots with its source, and
// CopyFrom reuses the target's slots when they are large enough.
func TestChunkTableCopies(t *testing.T) {
	var big, small ChunkTable
	for k := uint64(0); k < 1000; k++ {
		big.Set(tableKey(k), k)
	}
	for k := uint64(0); k < 10; k++ {
		small.Set(tableKey(k), k+100)
	}
	snap := small.Clone()
	small.Set(tableKey(0), 7)
	if v, _ := snap.Get(tableKey(0)); v != 100 {
		t.Fatalf("a write to the source reached its clone: %d", v)
	}

	own := &big.slots[0]
	if n := testing.AllocsPerRun(5, func() { big.CopyFrom(&snap) }); n != 0 {
		t.Errorf("CopyFrom into a larger table allocated %v times", n)
	}
	if &big.slots[0] != own {
		t.Error("CopyFrom did not reuse the target's slots")
	}
	big.Set(tableKey(1), 9)
	if v, _ := snap.Get(tableKey(1)); v != 101 {
		t.Fatalf("a write after CopyFrom reached the source: %d", v)
	}
	ref := map[uint64]uint64{}
	var keys []uint64
	for k := uint64(0); k < 1000; k++ {
		keys = append(keys, tableKey(k))
	}
	for k := uint64(0); k < 10; k++ {
		ref[tableKey(k)] = k + 100
	}
	ref[tableKey(1)] = 9
	checkAgainst(t, &big, ref, keys)

	var empty ChunkTable
	empty.CopyFrom(&big)
	checkAgainst(t, &empty, ref, keys)
	big.CopyFrom(&ChunkTable{})
	checkAgainst(t, &big, map[uint64]uint64{}, keys)
}

// FuzzChunkTable replays a byte string as Set/Get/Delete operations on a
// table and a Go map, over 512 keys 16 bytes apart, and compares them.
func FuzzChunkTable(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 2, 0, 1, 1, 0})
	f.Add([]byte("\x00\x00\x01\x00\x00\x02\x00\x00\x03\x01\x00\x01\x02\x00\x02\x00\x00\x04"))
	seed := make([]byte, 3*600)
	rand.New(rand.NewSource(2)).Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, ops []byte) {
		var tab ChunkTable
		ref := map[uint64]uint64{}
		keys := make([]uint64, 512)
		for k := range keys {
			keys[k] = tableKey(uint64(k))
		}
		for i := 0; i+3 <= len(ops); i += 3 {
			k := keys[binary.LittleEndian.Uint16(ops[i+1:])%512]
			switch ops[i] % 3 {
			case 0:
				v := uint64(i)
				tab.Set(k, v)
				ref[k] = v
			case 1:
				tab.Delete(k)
				delete(ref, k)
			default:
				got, ok := tab.Get(k)
				if want, wantOK := ref[k]; got != want || ok != wantOK {
					t.Fatalf("op %d: Get(%#x) = %d, %v; want %d, %v", i/3, k, got, ok, want, wantOK)
				}
			}
		}
		checkAgainst(t, &tab, ref, keys)
	})
}

// BenchmarkChunkTable compares the table with the Go map it replaced on
// the allocator's access pattern: 30,000 inserts of heap-like pointers
// (gcc's set-up), then lookups that alternate a hit and a miss.
func BenchmarkChunkTable(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 30_000)
	misses := make([]uint64, len(keys))
	p := uint64(testBase)
	for i := range keys {
		p += 32 + 16*uint64(rng.Intn(30))
		keys[i] = p
		misses[i] = p + 16 // inside the chunk: never a chunk pointer
	}
	b.Run("table/insert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var tab ChunkTable
			for j, k := range keys {
				tab.Set(k, uint64(j))
			}
		}
	})
	b.Run("map/insert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := map[uint64]uint64{}
			for j, k := range keys {
				m[k] = uint64(j)
			}
		}
	})
	var tab ChunkTable
	m := map[uint64]uint64{}
	for j, k := range keys {
		tab.Set(k, uint64(j))
		m[k] = uint64(j)
	}
	var sink uint64
	b.Run("table/lookup-pair", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			j := i % len(keys)
			v, _ := tab.Get(keys[j])
			w, _ := tab.Get(misses[j])
			sink += v + w
		}
	})
	b.Run("map/lookup-pair", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			j := i % len(keys)
			sink += m[keys[j]] + m[misses[j]]
		}
	})
	_ = sink
}
