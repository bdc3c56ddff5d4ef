package hbt

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"testing"

	"aos/internal/mem"
)

// tableGoldenDigest pins the observable behaviour of the table API over a
// seeded operation stream (see TestTableGoldenDigest) from a one-way
// table. It changes only when the table's semantics do; how the table
// stores its rows must not move it.
const tableGoldenDigest = "5902decf8da830262cbf836859a88ac070685ed6e1ee9ff5d4afb5ad53c48bb5"

// wideTableGoldenDigest pins the same stream from 16- and 64-way tables,
// whose rows (1 and 4 KiB) span several of the address space's
// copy-on-write granules.
const wideTableGoldenDigest = "6715e566af45eeb377f5e5f6da638084e4f97e6f9cf4b3b27ef5d5b475024038"

// TestTableGoldenDigest drives a seeded stream of Insert, Lookup,
// LookupFrom, Clear and WriteSlot calls — with the way-granular MCU reads
// beside them — over 256 PACs, so rows fill and the table resizes through
// Migration.Step windows of random length, with routed lookups between
// windows and extra resizes forced at fixed points. The PACs lie 257 rows
// apart, so the tables' present pages are separated by absent ones. It
// hashes every returned way, flag and error, Live() after every call,
// each step's traffic, and the contents of every used row of every table
// after each migration and at the end, for both entry sizes and for each
// starting associativity.
func TestTableGoldenDigest(t *testing.T) {
	for _, tc := range []struct {
		assocs []int
		digest string
	}{{[]int{1}, tableGoldenDigest}, {[]int{16, 64}, wideTableGoldenDigest}} {
		h := sha256.New()
		var b [8]byte
		put := func(v uint64) {
			binary.BigEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
		flag := func(ok bool) {
			if ok {
				put(1)
			} else {
				put(0)
			}
		}
		for _, assoc := range tc.assocs {
			for _, entryBytes := range []int{8, 16} {
				goldenStream(t, assoc, entryBytes, put, flag, h)
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.digest {
			t.Errorf("table digest from %v ways = %s, want %s", tc.assocs, got, tc.digest)
		}
	}
}

func goldenStream(t *testing.T, assoc, entryBytes int, put func(uint64), flag func(bool), h hash.Hash) {
	rng := rand.New(rand.NewSource(int64(entryBytes)))
	m := mem.New()
	next := uint64(tblBase)
	tb, err := NewTableEntrySize(m, next, assoc, entryBytes)
	if err != nil {
		t.Fatal(err)
	}
	next += tb.SizeBytes()
	var tables []*Table
	tables = append(tables, tb)

	type chunk struct {
		pac       uint16
		low, size uint64
	}
	var live []chunk
	heapNext := uint64(0x2000_0000_0000)
	const pacs = 256
	pacOf := func(k int) uint16 { return uint16(k * 257) }

	// Only the pacs used rows are ever addressed, so they hold every byte
	// the stream can have written.
	digestMem := func() {
		for _, x := range tables {
			buf := make([]byte, uint64(x.Assoc())*WayBytes)
			for k := 0; k < pacs; k++ {
				m.ReadBytes(x.RowAddr(pacOf(k)), buf)
				h.Write(buf)
			}
		}
	}
	resize := func() {
		if tb.Assoc()*2 > MaxAssoc {
			return
		}
		mi, err := StartMigration(tb, next)
		if err != nil {
			t.Fatal(err)
		}
		next += mi.New.SizeBytes()
		tables = append(tables, mi.New)
		for !mi.Done() {
			put(mi.Step(1 + rng.Intn(6000)))
			put(uint64(mi.RowPtr))
			put(uint64(mi.Old.Live()))
			put(uint64(mi.New.Live()))
			for k := 0; k < 4 && len(live) > 0; k++ {
				c := live[rng.Intn(len(live))]
				way, found := mi.TableDuring(c.pac, 0).Lookup(c.pac, c.low+uint64(rng.Int63n(int64(c.size))))
				put(uint64(way))
				flag(found)
			}
		}
		tb = mi.New
		digestMem()
	}

	for i := 0; i < 30_000; i++ {
		if i%9_000 == 4_500 {
			resize()
		}
		switch op := rng.Intn(16); {
		case op < 6: // Insert
			c := chunk{pac: pacOf(rng.Intn(pacs)), low: heapNext, size: uint64(1 + rng.Intn(4096))}
			heapNext += 8192
			way, err := tb.Insert(c.pac, c.low, c.size)
			if err == ErrTableFull {
				put(1 << 32)
				resize()
				way, err = tb.Insert(c.pac, c.low, c.size)
			}
			if err != nil {
				put(1 << 33)
			} else {
				live = append(live, c)
			}
			put(uint64(way))
		case op < 9: // Lookup: a live chunk, or a random address
			pac, addr := pacOf(rng.Intn(pacs)), heapNext-uint64(rng.Intn(1<<20))
			if len(live) > 0 && rng.Intn(4) != 0 {
				c := live[rng.Intn(len(live))]
				pac, addr = c.pac, c.low+uint64(rng.Int63n(int64(c.size)))
			}
			way, found := tb.Lookup(pac, addr)
			put(uint64(way))
			flag(found)
		case op < 11: // LookupFrom a random start way
			pac, addr := pacOf(rng.Intn(pacs)), heapNext-uint64(rng.Intn(1<<20))
			if len(live) > 0 && rng.Intn(4) != 0 {
				c := live[rng.Intn(len(live))]
				pac, addr = c.pac, c.low+uint64(rng.Int63n(int64(c.size)))
			}
			way, found := tb.LookupFrom(pac, addr, rng.Intn(tb.Assoc()))
			put(uint64(way))
			flag(found)
		case op < 14: // Clear: a live chunk, or a base that was never stored
			if len(live) > 0 && rng.Intn(8) != 0 {
				j := rng.Intn(len(live))
				c := live[j]
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				way, found := tb.Clear(c.pac, c.low)
				put(uint64(way))
				flag(found)
			} else {
				way, found := tb.Clear(pacOf(rng.Intn(pacs)), heapNext+16*uint64(rng.Intn(64)))
				put(uint64(way))
				flag(found)
			}
		case op < 15: // the MCU's way-granular reads
			pac, w := pacOf(rng.Intn(pacs)), rng.Intn(tb.Assoc())
			for _, v := range tb.ReadWay(pac, w) {
				put(v)
			}
			s, ok := tb.FindEmptySlot(pac, w)
			put(uint64(s))
			flag(ok)
			addr := heapNext - uint64(rng.Intn(1<<20))
			flag(tb.FindCovering(pac, w, addr))
			s, ok = tb.FindBase(pac, w, addr&^15)
			put(uint64(s))
			flag(ok)
			put(uint64(tb.RowOccupancy(pac)))
		default: // WriteSlot: a fresh entry, or zero (bndclr's write)
			pac, w, s := pacOf(rng.Intn(pacs)), rng.Intn(tb.Assoc()), rng.Intn(tb.SlotsPerWay())
			var v uint64
			if rng.Intn(2) == 0 {
				v, _ = Compress(heapNext, uint64(1+rng.Intn(4096)))
				heapNext += 8192
			}
			tb.WriteSlot(pac, w, s, v)
		}
		put(uint64(tb.Live()))
	}
	put(uint64(tb.Assoc()))
	digestMem()
}
