package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"
)

// Access kinds of the golden stream.
const (
	goldenFetch = iota
	goldenData
	goldenBounds
)

// goldenHierarchyStream calls visit for n seeded accesses: a quarter
// instruction fetches (sequential runs with jumps over a 256 KiB code
// region), half data accesses (a third of them writes) and a quarter
// bounds accesses (a quarter of them writes). Data fall in a hot 48 KiB
// region, a warm 1 MiB region or a cold 32 MiB region; bounds in a hot
// 16 KiB region or a 4 MiB one. The cold footprint is four times the L2,
// so dirty L2 lines get evicted.
func goldenHierarchyStream(n int, visit func(kind int, addr uint64, write bool)) {
	const (
		codeBase   = 0x0000_0040_0000
		heapBase   = 0x0000_1000_0000
		coldBase   = 0x0000_2000_0000
		boundsBase = 0x0000_4000_0000
	)
	rng := rand.New(rand.NewSource(20201017))
	pc := uint64(codeBase)
	for i := 0; i < n; i++ {
		switch r := rng.Intn(100); {
		case r < 25:
			if rng.Intn(12) == 0 {
				pc = codeBase + uint64(rng.Intn(256<<10))&^3
			} else {
				pc += 4
			}
			visit(goldenFetch, pc, false)
		case r < 75:
			var addr uint64
			switch d := rng.Intn(10); {
			case d < 5:
				addr = heapBase + uint64(rng.Intn(48<<10))
			case d < 8:
				addr = heapBase + uint64(rng.Intn(1<<20))
			default:
				addr = coldBase + uint64(rng.Int63n(32<<20))
			}
			visit(goldenData, addr, rng.Intn(3) == 0)
		default:
			span := 16 << 10
			if rng.Intn(10) < 3 {
				span = 4 << 20
			}
			visit(goldenBounds, boundsBase+uint64(rng.Intn(span))&^7, rng.Intn(4) == 0)
		}
	}
}

type hierarchyGolden struct {
	traffic           Traffic
	l1i, l1d, l1b, l2 Stats
	dram              uint64
	latencies         string // sha256 of the per-access latencies, 2 bytes LE each
}

// TestHierarchyGolden pins the memory system bit for bit: the traffic,
// every level's counters and the latency of every access of a 1.2M-access
// stream must stay exactly as first recorded, with and without the L1-B.
// A host-speed change to the cache layout may not move any of them.
func TestHierarchyGolden(t *testing.T) {
	const n = 1_200_000
	noB := DefaultConfig()
	noB.L1B = nil
	for _, tc := range []struct {
		name string
		cfg  HierarchyConfig
		want hierarchyGolden
	}{
		{"default", DefaultConfig(), goldenDefault},
		{"noL1B", noB, goldenNoL1B},
	} {
		h, err := NewHierarchy(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		lats := make([]byte, 0, 2*n)
		goldenHierarchyStream(n, func(kind int, addr uint64, write bool) {
			var lat int
			switch kind {
			case goldenFetch:
				lat = h.FetchInst(addr)
			case goldenData:
				lat = h.AccessData(addr, write)
			default:
				lat = h.AccessBounds(addr, write)
			}
			lats = binary.LittleEndian.AppendUint16(lats, uint16(lat))
		})
		sum := sha256.Sum256(lats)
		got := hierarchyGolden{
			traffic:   h.Traffic(),
			l1i:       h.L1I.Stats(),
			l1d:       h.L1D.Stats(),
			l2:        h.L2.Stats(),
			dram:      h.DRAMAccesses,
			latencies: hex.EncodeToString(sum[:]),
		}
		if h.L1B != nil {
			got.l1b = h.L1B.Stats()
		}
		if got.l2.Writebacks == 0 {
			t.Fatalf("%s: stream never evicted a dirty L2 line", tc.name)
		}
		if got != tc.want {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.name, got, tc.want)
		}
	}
}

// Recorded with the timestamp-LRU line arrays, before the recency-ordered
// word layout.
var (
	goldenDefault = hierarchyGolden{
		traffic:   Traffic{L1ToL2: 49353216, L2ToDRAM: 12779648},
		l1i:       Stats{Hits: 262689, Misses: 37001},
		l1d:       Stats{Hits: 179698, Misses: 420689, Writebacks: 167969},
		l1b:       Stats{Hits: 191484, Misses: 108439, Writebacks: 37046},
		l2:        Stats{Hits: 588740, Misses: 182404, Writebacks: 17278},
		dram:      182404,
		latencies: "8970eb6872cba27b84c5d7249c495693f3abb4d9361ddc2f391ca52c4f4830fd",
	}
	goldenNoL1B = hierarchyGolden{
		traffic:   Traffic{L1ToL2: 57179392, L2ToDRAM: 12782720},
		l1i:       Stats{Hits: 262689, Misses: 37001},
		l1d:       Stats{Hits: 279189, Misses: 621121, Writebacks: 235306},
		l2:        Stats{Hits: 711014, Misses: 182414, Writebacks: 17316},
		dram:      182414,
		latencies: "e61f17289a3856f4e96e5c8a5f58d1c9e4a1a955f95deb0e012eaff2d5392d12",
	}
)
