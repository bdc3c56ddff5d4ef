// Package mem provides the simulated flat virtual address space that every
// architectural structure in the reproduction lives in: heap chunks and
// their allocator metadata, the hashed bounds table, and the Watchdog
// baseline's shadow metadata. It is a sparse, page-granular store so that
// the modeled 46-bit address space costs only what is touched, and it
// shares its pages with snapshots copy-on-write by 512-byte granules.
package mem

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// PageBits is the log2 of the backing page size.
const PageBits = 12

// PageSize is the backing page size in bytes.
const PageSize = 1 << PageBits

const offMask = PageSize - 1

// GranuleBits is the log2 of the copy-on-write unit: a write to a page
// shared with a snapshot copies only the granule it lands in.
const GranuleBits = 9

// GranuleSize is the copy-on-write granule in bytes.
const GranuleSize = 1 << GranuleBits

const (
	granMask = GranuleSize - 1
	granules = PageSize / GranuleSize // per page
)

// Memory is a sparse byte-addressable address space. The zero value is not
// usable; call New.
type Memory struct {
	// pageTable maps page numbers to pages; it is all a checkpoint
	// captures (see snapshot.go).
	pageTable

	// gen is the space's generation: a page whose slot carries it is
	// private to this space, and any other page may be shared with a
	// snapshot or another space, so a write copies first (see wgranule).
	// A new space is at generation 0, like every other new space, which
	// is safe because none of them shares a page; Snapshot and Restore
	// move the space to a fresh generation, which marks every page it
	// then holds as shared in one step.
	gen uint64
}

// pageTable is a flat open-addressed table of pages in the style of
// heap.ChunkTable: a power-of-two slot slice, doubled before it passes
// half full, a Fibonacci hash of the page number picking a key's home
// slot and linear probing from there. Pages are never removed, so it needs
// no deletion. A nil blk marks an empty slot (page number 0 is a real
// page).
type pageTable struct {
	slots []pageSlot
	n     int  // pages present
	shift uint // 64 - log2(len(slots))
}

// pageSlot holds one page: its number, the 4 KiB array it was made with,
// its granule index once a write has copied one of its granules, and the
// generation of the space that last made the slot private. While idx is
// nil the page's granules are blk's eight 512-byte slices, so a page no
// snapshot has split reads straight from its array.
type pageSlot struct {
	pn  uint64
	blk *[PageSize]byte
	idx *granuleIndex
	gen uint64
}

// granuleIndex is where a split page's granules live. own marks the
// granules the slot's space has copied since it made the index (bit i for
// g[i]); it is read only while the slot is private, and a shared index is
// copied, with own cleared, before any write.
type granuleIndex struct {
	own uint8
	g   [granules]*[GranuleSize]byte
}

// splitPage is a granule index allocated together with the granule whose
// write made it, so a shared page's first write allocates once.
type splitPage struct {
	idx granuleIndex
	g   [GranuleSize]byte
}

const (
	// minPageBits is log2 of a new space's slot count.
	minPageBits = 4
	// fibHash is 2^64 divided by the golden ratio.
	fibHash = 0x9E3779B97F4A7C15
)

// lastGen hands out the generations Snapshot and Restore take. It is
// process-wide because any State may be restored into any Memory,
// concurrently too: a space that has shared its pages never again holds a
// generation any other space or any State's page carries.
var lastGen atomic.Uint64

// New returns an empty address space.
func New() *Memory {
	return &Memory{pageTable: pageTable{slots: make([]pageSlot, 1<<minPageBits), shift: 64 - minPageBits}}
}

// slot returns page pn's slot, or the empty slot its probe run ends at.
func (t *pageTable) slot(pn uint64) *pageSlot {
	mask := len(t.slots) - 1
	for i := int(pn * fibHash >> t.shift); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.blk == nil || s.pn == pn {
			return s
		}
	}
}

// granule returns the backing granule holding addr, or nil when its page
// was never written. Reads may use it whoever owns it.
func (t *pageTable) granule(addr uint64) *[GranuleSize]byte {
	s := t.slot(addr >> PageBits)
	i := addr >> GranuleBits & (granules - 1)
	if s.idx != nil {
		return s.idx.g[i]
	}
	if s.blk == nil {
		return nil
	}
	return (*[GranuleSize]byte)(s.blk[i*GranuleSize:])
}

// wgranule is granule for mutating callers: on a page this space does not
// own it copies the page's granule index, or makes one from the page's
// array, and then copies the granule addr lies in before handing it out,
// so every write path is a copy-on-write point. With create it
// materializes an absent page, private by construction.
func (m *Memory) wgranule(addr uint64, create bool) *[GranuleSize]byte {
	pn := addr >> PageBits
	s := m.slot(pn)
	i := addr >> GranuleBits & (granules - 1)
	switch {
	case s.blk == nil:
		if !create {
			return nil
		}
		if 2*(m.n+1) > len(m.slots) {
			m.grow()
			s = m.slot(pn)
		}
		*s = pageSlot{pn: pn, blk: new([PageSize]byte), gen: m.gen}
		m.n++
	case s.gen != m.gen:
		sp := new(splitPage)
		x := &sp.idx
		if s.idx != nil {
			x.g = s.idx.g
		} else {
			for k := range x.g {
				x.g[k] = (*[GranuleSize]byte)(s.blk[k*GranuleSize:])
			}
		}
		sp.g = *x.g[i]
		x.g[i], x.own = &sp.g, 1<<i
		s.idx, s.gen = x, m.gen
		return &sp.g
	}
	x := s.idx
	if x == nil {
		return (*[GranuleSize]byte)(s.blk[i*GranuleSize:])
	}
	if x.own&(1<<i) == 0 {
		g := new([GranuleSize]byte)
		*g = *x.g[i]
		x.g[i] = g
		x.own |= 1 << i
	}
	return x.g[i]
}

// grow doubles the table, moving every slot to its new home.
func (m *Memory) grow() {
	old := m.slots
	m.slots = make([]pageSlot, 2*len(old))
	m.shift--
	for _, s := range old {
		if s.blk != nil {
			*m.slot(s.pn) = s
		}
	}
}

// PagesTouched returns the number of distinct pages materialized so far.
func (m *Memory) PagesTouched() uint64 { return uint64(m.n) }

// FootprintBytes returns the touched footprint in bytes.
func (m *Memory) FootprintBytes() uint64 { return m.PagesTouched() * PageSize }

// View returns the n bytes at addr (within one granule) as a read-only
// window onto the backing granule, or nil when the page holding addr was
// never written. The granule may be shared with a snapshot, and a write to
// it leaves the window stale: write through WriteU64 and friends, then
// take a new view.
func (m *Memory) View(addr, n uint64) []byte {
	g := m.granule(addr)
	if g == nil {
		return nil
	}
	off := addr & granMask
	return g[off : off+n : off+n]
}

// ReadU8 reads one byte; untouched memory reads as zero.
func (m *Memory) ReadU8(addr uint64) byte {
	if g := m.granule(addr); g != nil {
		return g[addr&granMask]
	}
	return 0
}

// WriteU8 writes one byte.
func (m *Memory) WriteU8(addr uint64, v byte) {
	m.wgranule(addr, true)[addr&granMask] = v
}

// ReadU64 reads a little-endian 64-bit word.
func (m *Memory) ReadU64(addr uint64) uint64 {
	off := addr & granMask
	if off <= GranuleSize-8 {
		g := m.granule(addr)
		if g == nil {
			return 0
		}
		return binary.LittleEndian.Uint64(g[off : off+8])
	}
	var b [8]byte
	m.ReadBytes(addr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// WriteU64 writes a little-endian 64-bit word.
func (m *Memory) WriteU64(addr uint64, v uint64) {
	off := addr & granMask
	if off <= GranuleSize-8 {
		binary.LittleEndian.PutUint64(m.wgranule(addr, true)[off:off+8], v)
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	m.WriteBytes(addr, b[:])
}

// ReadU32 reads a little-endian 32-bit word.
func (m *Memory) ReadU32(addr uint64) uint32 {
	off := addr & granMask
	if off <= GranuleSize-4 {
		g := m.granule(addr)
		if g == nil {
			return 0
		}
		return binary.LittleEndian.Uint32(g[off : off+4])
	}
	var b [4]byte
	m.ReadBytes(addr, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// WriteU32 writes a little-endian 32-bit word.
func (m *Memory) WriteU32(addr uint64, v uint32) {
	off := addr & granMask
	if off <= GranuleSize-4 {
		binary.LittleEndian.PutUint32(m.wgranule(addr, true)[off:off+4], v)
		return
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	m.WriteBytes(addr, b[:])
}

// ReadBytes fills dst from memory starting at addr.
func (m *Memory) ReadBytes(addr uint64, dst []byte) {
	for len(dst) > 0 {
		off := addr & granMask
		n := min(GranuleSize-off, uint64(len(dst)))
		if g := m.granule(addr); g != nil {
			copy(dst[:n], g[off:off+n])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		addr += n
	}
}

// WriteBytes copies src into memory starting at addr.
func (m *Memory) WriteBytes(addr uint64, src []byte) {
	for len(src) > 0 {
		off := addr & granMask
		n := min(GranuleSize-off, uint64(len(src)))
		copy(m.wgranule(addr, true)[off:off+n], src[:n])
		src = src[n:]
		addr += n
	}
}

// Zero clears size bytes starting at addr. Pages never materialized are
// left absent — they already read as zero, and creating them here would
// both inflate the footprint proxy and make zeroing a sparse region (the
// old table after an HBT migration) cost 65536 rows of page faults.
func (m *Memory) Zero(addr, size uint64) {
	for size > 0 {
		off := addr & granMask
		n := min(GranuleSize-off, size)
		if g := m.wgranule(addr, false); g != nil {
			clear(g[off : off+n])
		}
		size -= n
		addr += n
	}
}

// Copy moves size bytes from src to dst (regions may not overlap
// meaningfully; used for table migration and realloc). It works a granule
// run at a time and exploits sparseness: an absent source page holds
// zeros, so it only forces a clear when the destination page exists, and
// copying absent-to-absent is a no-op.
func (m *Memory) Copy(dst, src, size uint64) {
	for size > 0 {
		soff, doff := src&granMask, dst&granMask
		n := min(GranuleSize-soff, GranuleSize-doff, size)
		if sg := m.granule(src); sg != nil {
			copy(m.wgranule(dst, true)[doff:doff+n], sg[soff:soff+n])
		} else if dg := m.wgranule(dst, false); dg != nil {
			clear(dg[doff : doff+n])
		}
		src += n
		dst += n
		size -= n
	}
}

// String summarizes the space for debugging.
func (m *Memory) String() string {
	return fmt.Sprintf("mem{%d pages, %d KiB}", m.n, m.FootprintBytes()/1024)
}
