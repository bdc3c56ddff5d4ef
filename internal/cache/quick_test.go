package cache

import (
	"math/rand"
	"testing"
)

// TestSetResidencyInvariant: after touching exactly `ways` distinct lines
// of one set, all of them must be resident (LRU never evicts within
// capacity).
func TestSetResidencyInvariant(t *testing.T) {
	c := MustNewCache(Config{SizeBytes: 4096, Ways: 4, Latency: 1}) // 16 sets
	const setStride = 16 * LineBytes
	base := uint64(0x2000_0000_0000)
	for i := 0; i < 4; i++ {
		c.Access(base+uint64(i)*setStride, false)
	}
	for i := 0; i < 4; i++ {
		if !c.Contains(base + uint64(i)*setStride) {
			t.Fatalf("line %d evicted within capacity", i)
		}
	}
	// One more line overflows: exactly one of the five is absent.
	c.Access(base+4*setStride, false)
	absent := 0
	for i := 0; i <= 4; i++ {
		if !c.Contains(base + uint64(i)*setStride) {
			absent++
		}
	}
	if absent != 1 {
		t.Fatalf("%d lines absent after single overflow, want 1", absent)
	}
}

// TestHitMissAgainstReferenceModel compares the cache against a naive
// per-set LRU reference on a random access stream, for every geometry in
// refGeometries.
func TestHitMissAgainstReferenceModel(t *testing.T) {
	for _, cfg := range refGeometries {
		ways := cfg.Ways
		c := MustNewCache(cfg)
		nSets := uint64(cfg.SizeBytes / (ways * LineBytes))

		ref := make(map[uint64][]uint64) // set -> LRU-ordered line addresses (front = MRU)
		refAccess := func(line uint64) bool {
			set := line % nSets
			lines := ref[set]
			for i, l := range lines {
				if l == line {
					// hit: move to front
					copy(lines[1:i+1], lines[:i])
					lines[0] = line
					return true
				}
			}
			lines = append([]uint64{line}, lines...)
			if len(lines) > ways {
				lines = lines[:ways]
			}
			ref[set] = lines
			return false
		}

		rng := rand.New(rand.NewSource(99))
		nLines := 2 * int(nSets) * ways // twice the capacity: contention
		for i := 0; i < 50_000; i++ {
			line := uint64(rng.Intn(nLines))
			addr := line * LineBytes
			hit, _, _ := c.Access(addr, rng.Intn(2) == 0)
			if want := refAccess(line); hit != want {
				t.Fatalf("%d sets x %d ways, access %d (line %d): cache hit=%v, reference hit=%v",
					nSets, ways, i, line, hit, want)
			}
		}
	}
}

// TestWritebackConservation: every dirty line is written back exactly once
// across its eviction, never for clean lines.
func TestWritebackConservation(t *testing.T) {
	c := MustNewCache(Config{SizeBytes: 1024, Ways: 2, Latency: 1}) // 8 sets
	rng := rand.New(rand.NewSource(5))
	dirty := make(map[uint64]bool)
	var expectedWB uint64
	for i := 0; i < 20_000; i++ {
		line := uint64(rng.Intn(64))
		write := rng.Intn(3) == 0
		_, vd, va := c.Access(line*LineBytes, write)
		if vd {
			vl := va / LineBytes
			if !dirty[vl] {
				t.Fatalf("write-back of clean line %d", vl)
			}
			delete(dirty, vl)
			expectedWB++
		}
		if write {
			dirty[line] = true
		}
		// On miss the old resident (if clean) silently vanishes; drop any
		// stale dirty bookkeeping for lines no longer cached.
		for l := range dirty {
			if !c.Contains(l * LineBytes) {
				// must have been written back this access or earlier
				delete(dirty, l)
			}
		}
	}
	if c.Stats().Writebacks != expectedWB {
		t.Errorf("writebacks = %d, observed %d evictions of dirty lines",
			c.Stats().Writebacks, expectedWB)
	}
}
