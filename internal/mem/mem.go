// Package mem provides the simulated flat virtual address space that every
// architectural structure in the reproduction lives in: heap chunks and
// their allocator metadata, the hashed bounds table, and the Watchdog
// baseline's shadow metadata. It is a sparse, page-granular store so that
// the modeled 46-bit address space costs only what is touched.
package mem

import (
	"encoding/binary"
	"fmt"
)

// PageBits is the log2 of the backing page size.
const PageBits = 12

// PageSize is the backing page size in bytes.
const PageSize = 1 << PageBits

const offMask = PageSize - 1

// Memory is a sparse byte-addressable address space. The zero value is not
// usable; call New.
type Memory struct {
	pages map[uint64]*[PageSize]byte

	// PagesTouched counts distinct pages ever materialized (memory
	// footprint proxy).
	pagesTouched uint64

	// shared lists pages whose backing arrays are co-owned by a Snapshot
	// (copy-on-write): a write to a shared page copies it first, so the
	// snapshot's view stays frozen while the live space moves on. nil —
	// the common case for spaces that were never snapshotted — keeps the
	// write path at a single pointer compare.
	shared map[uint64]struct{}
}

// New returns an empty address space.
func New() *Memory {
	return &Memory{pages: make(map[uint64]*[PageSize]byte)}
}

func (m *Memory) page(addr uint64, create bool) *[PageSize]byte {
	pn := addr >> PageBits
	p := m.pages[pn]
	if p == nil && create {
		p = new([PageSize]byte)
		m.pages[pn] = p
		m.pagesTouched++
	}
	return p
}

// wpage is page for mutating callers: it additionally unshares a page
// co-owned by a snapshot before handing it out, so every write path is a
// copy-on-write point. Newly materialized pages are private by
// construction (a snapshot can only hold pages that existed when it was
// taken).
func (m *Memory) wpage(addr uint64, create bool) *[PageSize]byte {
	pn := addr >> PageBits
	p := m.pages[pn]
	if p == nil {
		if !create {
			return nil
		}
		p = new([PageSize]byte)
		m.pages[pn] = p
		m.pagesTouched++
		return p
	}
	if m.shared != nil {
		if _, ok := m.shared[pn]; ok {
			q := *p
			p = &q
			m.pages[pn] = p
			delete(m.shared, pn)
		}
	}
	return p
}

// PagesTouched returns the number of distinct pages materialized so far.
func (m *Memory) PagesTouched() uint64 { return m.pagesTouched }

// FootprintBytes returns the touched footprint in bytes.
func (m *Memory) FootprintBytes() uint64 { return m.pagesTouched * PageSize }

// View returns the n bytes at addr (within one page) as a read-only window
// onto the backing page, or nil when the page was never written. The page
// may be shared with a snapshot, and a write to it leaves the window stale:
// write through WriteU64 and friends, then take a new view.
func (m *Memory) View(addr, n uint64) []byte {
	p := m.page(addr, false)
	if p == nil {
		return nil
	}
	off := addr & offMask
	return p[off : off+n : off+n]
}

// ReadU8 reads one byte; untouched memory reads as zero.
func (m *Memory) ReadU8(addr uint64) byte {
	if p := m.page(addr, false); p != nil {
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
		p := m.page(addr, false)
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
		p := m.page(addr, false)
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
		if p := m.page(addr, false); p != nil {
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
		if sp := m.page(src, false); sp != nil {
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
	return fmt.Sprintf("mem{%d pages, %d KiB}", m.pagesTouched, m.pagesTouched*PageSize/1024)
}
