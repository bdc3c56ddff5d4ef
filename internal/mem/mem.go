// Package mem provides the simulated flat virtual address space that every
// architectural structure in the reproduction lives in: heap chunks and
// their allocator metadata, the hashed bounds table, and the Watchdog
// baseline's shadow metadata. It is a sparse, page-granular store so that
// the modeled 46-bit address space costs only what is touched.
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

// Memory is a sparse byte-addressable address space. The zero value is not
// usable; call New.
type Memory struct {
	// pageTable maps page numbers to backing pages; it is all a
	// checkpoint captures (see snapshot.go).
	pageTable

	// gen is the space's generation: a page whose slot carries it is
	// private to this space, and any other page may be shared with a
	// snapshot or another space, so a write copies it first (see wpage).
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
// no deletion. A nil page marks an empty slot (page number 0 is a real
// page).
type pageTable struct {
	slots []pageSlot
	n     int  // pages present
	shift uint // 64 - log2(len(slots))
}

// pageSlot holds one page: its number, its backing array and the
// generation of the space that last made it private.
type pageSlot struct {
	pn   uint64
	page *[PageSize]byte
	gen  uint64
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
		if s.page == nil || s.pn == pn {
			return s
		}
	}
}

// page returns the backing page holding addr, or nil when it was never
// written. Reads may use it whoever owns it.
func (m *Memory) page(addr uint64) *[PageSize]byte {
	return m.slot(addr >> PageBits).page
}

// wpage is page for mutating callers: it copies a page this space does
// not own before handing it out, so every write path is a copy-on-write
// point, and with create it materializes an absent page. A new page is
// private by construction.
func (m *Memory) wpage(addr uint64, create bool) *[PageSize]byte {
	pn := addr >> PageBits
	s := m.slot(pn)
	if s.page == nil {
		if !create {
			return nil
		}
		if 2*(m.n+1) > len(m.slots) {
			m.grow()
			s = m.slot(pn)
		}
		*s = pageSlot{pn: pn, page: new([PageSize]byte), gen: m.gen}
		m.n++
	} else if s.gen != m.gen {
		p := new([PageSize]byte)
		*p = *s.page
		s.page, s.gen = p, m.gen
	}
	return s.page
}

// grow doubles the table, moving every slot to its new home.
func (m *Memory) grow() {
	old := m.slots
	m.slots = make([]pageSlot, 2*len(old))
	m.shift--
	for _, s := range old {
		if s.page != nil {
			*m.slot(s.pn) = s
		}
	}
}

// PagesTouched returns the number of distinct pages materialized so far.
func (m *Memory) PagesTouched() uint64 { return uint64(m.n) }

// FootprintBytes returns the touched footprint in bytes.
func (m *Memory) FootprintBytes() uint64 { return m.PagesTouched() * PageSize }

// View returns the n bytes at addr (within one page) as a read-only window
// onto the backing page, or nil when the page was never written. The page
// may be shared with a snapshot, and a write to it leaves the window stale:
// write through WriteU64 and friends, then take a new view.
func (m *Memory) View(addr, n uint64) []byte {
	p := m.page(addr)
	if p == nil {
		return nil
	}
	off := addr & offMask
	return p[off : off+n : off+n]
}

// ReadU8 reads one byte; untouched memory reads as zero.
func (m *Memory) ReadU8(addr uint64) byte {
	if p := m.page(addr); p != nil {
		return p[addr&offMask]
	}
	return 0
}

// WriteU8 writes one byte.
func (m *Memory) WriteU8(addr uint64, v byte) {
	m.wpage(addr, true)[addr&offMask] = v
}

// ReadU64 reads a little-endian 64-bit word.
func (m *Memory) ReadU64(addr uint64) uint64 {
	off := addr & offMask
	if off <= PageSize-8 {
		p := m.page(addr)
		if p == nil {
			return 0
		}
		return binary.LittleEndian.Uint64(p[off : off+8])
	}
	var b [8]byte
	m.ReadBytes(addr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// WriteU64 writes a little-endian 64-bit word.
func (m *Memory) WriteU64(addr uint64, v uint64) {
	off := addr & offMask
	if off <= PageSize-8 {
		binary.LittleEndian.PutUint64(m.wpage(addr, true)[off:off+8], v)
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	m.WriteBytes(addr, b[:])
}

// ReadU32 reads a little-endian 32-bit word.
func (m *Memory) ReadU32(addr uint64) uint32 {
	off := addr & offMask
	if off <= PageSize-4 {
		p := m.page(addr)
		if p == nil {
			return 0
		}
		return binary.LittleEndian.Uint32(p[off : off+4])
	}
	var b [4]byte
	m.ReadBytes(addr, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// WriteU32 writes a little-endian 32-bit word.
func (m *Memory) WriteU32(addr uint64, v uint32) {
	off := addr & offMask
	if off <= PageSize-4 {
		binary.LittleEndian.PutUint32(m.wpage(addr, true)[off:off+4], v)
		return
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	m.WriteBytes(addr, b[:])
}

// ReadBytes fills dst from memory starting at addr.
func (m *Memory) ReadBytes(addr uint64, dst []byte) {
	for len(dst) > 0 {
		off := addr & offMask
		n := PageSize - off
		if n > uint64(len(dst)) {
			n = uint64(len(dst))
		}
		if p := m.page(addr); p != nil {
			copy(dst[:n], p[off:off+n])
		} else {
			for i := uint64(0); i < n; i++ {
				dst[i] = 0
			}
		}
		dst = dst[n:]
		addr += n
	}
}

// WriteBytes copies src into memory starting at addr.
func (m *Memory) WriteBytes(addr uint64, src []byte) {
	for len(src) > 0 {
		off := addr & offMask
		n := PageSize - off
		if n > uint64(len(src)) {
			n = uint64(len(src))
		}
		copy(m.wpage(addr, true)[off:off+n], src[:n])
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
		off := addr & offMask
		n := PageSize - off
		if n > size {
			n = size
		}
		if p := m.wpage(addr, false); p != nil {
			clear(p[off : off+n])
		}
		size -= n
		addr += n
	}
}

// Copy moves size bytes from src to dst (regions may not overlap
// meaningfully; used for table migration and realloc). It works a page
// run at a time and exploits sparseness: an absent source page holds
// zeros, so it only forces a clear when the destination page exists, and
// copying absent-to-absent is a no-op.
func (m *Memory) Copy(dst, src, size uint64) {
	for size > 0 {
		n := PageSize - (src & offMask)
		if r := PageSize - (dst & offMask); r < n {
			n = r
		}
		if n > size {
			n = size
		}
		soff, doff := src&offMask, dst&offMask
		if sp := m.page(src); sp != nil {
			copy(m.wpage(dst, true)[doff:doff+n], sp[soff:soff+n])
		} else if dp := m.wpage(dst, false); dp != nil {
			clear(dp[doff : doff+n])
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
