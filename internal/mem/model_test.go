package mem

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"
)

// model is the reference an address space is checked against: the bytes
// of each page the space should have materialized, in a plain map (an
// absent page reads zero).
type model struct {
	pages map[uint64]*[PageSize]byte
}

func newModel() *model {
	return &model{pages: map[uint64]*[PageSize]byte{}}
}

func (md *model) clone() *model {
	c := newModel()
	for pn, p := range md.pages {
		q := *p
		c.pages[pn] = &q
	}
	return c
}

func (md *model) read(addr uint64) byte {
	if p := md.pages[addr>>PageBits]; p != nil {
		return p[addr&offMask]
	}
	return 0
}

func (md *model) write(addr uint64, v byte) {
	p := md.pages[addr>>PageBits]
	if p == nil {
		p = new([PageSize]byte)
		md.pages[addr>>PageBits] = p
	}
	p[addr&offMask] = v
}

// zero clears a byte without materializing its page, as Memory.Zero does.
func (md *model) zero(addr uint64) {
	if p := md.pages[addr>>PageBits]; p != nil {
		p[addr&offMask] = 0
	}
}

// copyByte mirrors Memory.Copy one byte at a time: an absent source page
// reads zero and materializes nothing, a present one materializes the
// destination's page.
func (md *model) copyByte(dst, src uint64) {
	if md.pages[src>>PageBits] != nil {
		md.write(dst, md.read(src))
	} else {
		md.zero(dst)
	}
}

// modelPages are the page numbers the checker addresses: neighbours, so
// accesses cross page boundaries, and far-apart ones whose home slots
// collide in a small table.
var modelPages = []uint64{0, 1, 2, 3, 17, 33, 1 << 20, 1<<20 + 1, 1 << 34}

// byteStream feeds the checker's choices from fuzz input; past its end
// every choice is 0.
type byteStream []byte

func (b *byteStream) next() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

func (b *byteStream) addr() uint64 {
	pn := modelPages[int(b.next())%len(modelPages)]
	off := uint64(b.next())<<4 | uint64(b.next()&15)
	switch b.next() & 3 {
	case 0:
		off = PageSize - 1 - uint64(b.next()&15) // near the end: crossing into the next page
	case 1:
		off |= granMask // near a granule's end: crossing into the next granule
		off -= uint64(b.next() & 15)
	}
	return pn<<PageBits + off&offMask
}

// checkMemoryModel runs the operation sequence ops encodes against a set
// of address spaces and the byte-map model: 8-, 32- and 64-bit writes
// (some crossing a granule or a page boundary), Zero and Copy runs that
// start, end or straddle anywhere in a granule, Snapshot, and Restore
// into the same space or a fresh one. It checks every read against the model, that
// every snapshot stays frozen, and that each space reads its own writes
// and no other space's.
func checkMemoryModel(t *testing.T, ops []byte) {
	type snap struct {
		st *State
		md *model
	}
	spaces := []*Memory{New()}
	models := []*model{newModel()}
	var snaps []snap
	b := byteStream(ops)
	for step := 0; len(b) > 0; step++ {
		i := int(b.next()) % len(spaces)
		m, md := spaces[i], models[i]
		switch op := b.next() % 8; op {
		case 0:
			a := b.addr()
			v := b.next()
			m.WriteU8(a, v)
			md.write(a, v)
		case 1:
			a := b.addr()
			v := uint32(b.next())*0x01010101 ^ uint32(step)
			m.WriteU32(a, v)
			var w [4]byte
			binary.LittleEndian.PutUint32(w[:], v)
			for k := uint64(0); k < 4; k++ {
				md.write(a+k, w[k])
			}
		case 2, 3:
			a := b.addr()
			v := uint64(b.next())*0x0101010101010101 ^ uint64(step)
			m.WriteU64(a, v)
			var w [8]byte
			binary.LittleEndian.PutUint64(w[:], v)
			for k := uint64(0); k < 8; k++ {
				md.write(a+k, w[k])
			}
		case 4:
			a, n := b.addr(), uint64(b.next())<<5
			m.Zero(a, n)
			for k := uint64(0); k < n; k++ {
				md.zero(a + k)
			}
		case 5:
			dst, src, n := b.addr(), b.addr(), uint64(b.next())<<4
			if dst < src+n && src < dst+n {
				continue // Copy's regions may not overlap
			}
			m.Copy(dst, src, n)
			for k := uint64(0); k < n; k++ {
				md.copyByte(dst+k, src+k)
			}
		case 6:
			snaps = append(snaps, snap{m.Snapshot(), md.clone()})
		case 7:
			if len(snaps) == 0 {
				continue
			}
			s := snaps[int(b.next())%len(snaps)]
			if b.next()&1 == 0 {
				m.Restore(s.st)
				models[i] = s.md.clone()
			} else {
				r := New()
				r.Restore(s.st)
				spaces = append(spaces, r)
				models = append(models, s.md.clone())
			}
		}
		checkSpace(t, m, models[i], step)
	}
	for i, m := range spaces {
		checkSpace(t, m, models[i], -1)
	}
	for k, s := range snaps {
		r := New()
		r.Restore(s.st)
		if t.Failed() {
			return
		}
		checkSpace(t, r, s.md, -1-k)
	}
}

// checkSpace compares PagesTouched and every byte of the checked pages
// with the model: the whole page through ReadBytes, each granule and a
// window ending at each granule's edge through View, and single bytes,
// and words crossing each granule's edge (the last into the next page),
// through ReadU8, ReadU32 and ReadU64.
func checkSpace(t *testing.T, m *Memory, md *model, step int) {
	t.Helper()
	if got := m.PagesTouched(); got != uint64(len(md.pages)) {
		t.Fatalf("step %d: PagesTouched = %d, model has %d pages", step, got, len(md.pages))
	}
	var buf, want [PageSize]byte
	for _, pn := range modelPages {
		base := pn << PageBits
		p := md.pages[pn]
		want = [PageSize]byte{}
		if p != nil {
			want = *p
		}
		for k := uint64(0); k < PageSize; k += GranuleSize {
			for _, w := range [][2]uint64{{k, GranuleSize}, {k + GranuleSize - 3, 3}} {
				v := m.View(base+w[0], w[1])
				if (v != nil) != (p != nil) {
					t.Fatalf("step %d: page %d: View(+%#x, %d) present %v, model %v", step, pn, w[0], w[1], v != nil, p != nil)
				}
				if v != nil && !bytes.Equal(v, want[w[0]:w[0]+w[1]]) {
					t.Fatalf("step %d: page %d: View(+%#x, %d) differs from the model", step, pn, w[0], w[1])
				}
			}
			var w [8]byte
			for i := range w {
				w[i] = md.read(base + k + GranuleSize - 4 + uint64(i))
			}
			edge := base + k + GranuleSize
			if got, want := m.ReadU64(edge-4), binary.LittleEndian.Uint64(w[:]); got != want {
				t.Fatalf("step %d: crossing word at %#x = %#x, model %#x", step, edge-4, got, want)
			}
			if got, want := m.ReadU32(edge-2), binary.LittleEndian.Uint32(w[2:6]); got != want {
				t.Fatalf("step %d: crossing word at %#x = %#x, model %#x", step, edge-2, got, want)
			}
		}
		m.ReadBytes(base, buf[:])
		if buf != want {
			t.Fatalf("step %d: page %d: ReadBytes differs from the model", step, pn)
		}
		for _, off := range []uint64{0, 1, 255, GranuleSize - 1, GranuleSize, PageSize - 1} {
			if got := m.ReadU8(base + off); got != want[off] {
				t.Fatalf("step %d: byte %#x = %#x, model %#x", step, base+off, got, want[off])
			}
		}
	}
}

// TestMemoryMatchesModel drives random operation sequences through the
// model checker.
func TestMemoryMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for run := 0; run < 20; run++ {
		ops := make([]byte, 600)
		rng.Read(ops)
		checkMemoryModel(t, ops)
		if t.Failed() {
			t.Fatalf("run %d failed", run)
		}
	}
}

// FuzzMemory is the model check over fuzzer-chosen operation sequences.
func FuzzMemory(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 4; i++ {
		ops := make([]byte, 200)
		rng.Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 2048 {
			ops = ops[:2048]
		}
		checkMemoryModel(t, ops)
	})
}

// TestConcurrentRestoreAndWrite: two goroutines restore one State and
// write every page of it while the space it came from writes too. Each
// space must read its own writes, and the State must stay frozen; under
// the race detector this also checks that no write reaches a page another
// space can read.
func TestConcurrentRestoreAndWrite(t *testing.T) {
	const pages = 64
	m := New()
	for pn := uint64(0); pn < pages; pn++ {
		m.WriteU64(pn<<PageBits, pn)
	}
	s := m.Snapshot()
	spaces := []*Memory{m, New(), New()}
	var wg sync.WaitGroup
	for g, sp := range spaces {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g > 0 {
				sp.Restore(s)
			}
			for pn := uint64(0); pn < pages; pn++ {
				sp.WriteU64(pn<<PageBits+8, uint64(g)<<32|pn)
			}
		}()
	}
	wg.Wait()
	for g, sp := range spaces {
		for pn := uint64(0); pn < pages; pn++ {
			if got := sp.ReadU64(pn << PageBits); got != pn {
				t.Fatalf("space %d page %d: snapshot word %d, want %d", g, pn, got, pn)
			}
			if got, want := sp.ReadU64(pn<<PageBits+8), uint64(g)<<32|pn; got != want {
				t.Fatalf("space %d page %d: own write %#x, want %#x", g, pn, got, want)
			}
		}
	}
	r := New()
	r.Restore(s)
	for pn := uint64(0); pn < pages; pn++ {
		if got := r.ReadU64(pn<<PageBits + 8); got != 0 {
			t.Fatalf("snapshot page %d took a write: %#x", pn, got)
		}
	}
}
