// Package heap implements a glibc-style dynamic memory allocator over the
// simulated address space. AOS's evaluation depends on allocator behaviour
// in several load-bearing ways, so this is a real allocator, not a bump
// pointer:
//
//   - free() legitimately touches the metadata of neighbouring chunks while
//     coalescing — the reason AOS strips the PAC with xpacm around free()
//     (§IV-C).
//   - Fastbins keep freed small chunks in LIFO lists without coalescing,
//     which is what the House-of-Spirit attack in the paper's Fig 1 abuses.
//   - The tcache layer (glibc 2.26) is what exposed the double-free vector
//     discussed in §VII-D.
//   - malloc() returns 16-byte-aligned pointers and takes a 32-bit size,
//     the two facts the AOS bounds-compression format exploits (§V-D).
//
// Chunk layout follows glibc: a 16-byte header (prev_size, size|flags)
// precedes the payload; the low bit of size is PREV_INUSE. Free chunks keep
// fd/bk links inside the payload and replicate their size as a footer in
// the next chunk's prev_size.
package heap

import (
	"errors"
	"fmt"

	"aos/internal/mem"
)

// Chunk/alignment constants.
const (
	// HeaderSize is the per-chunk header (prev_size + size words).
	HeaderSize = 16
	// MinChunk is the smallest chunk (header + fd/bk links).
	MinChunk = 32
	// Align is the allocation alignment malloc guarantees.
	Align = 16

	prevInUse = 0x1
	sizeMask  = ^uint64(0xF)

	// MaxFastPayload: chunks up to this payload size go to fastbins.
	MaxFastPayload = 112
	// MaxTcachePayload: chunks up to this payload size go to tcache first.
	MaxTcachePayload = 1024
	// TcacheCap is the per-class tcache capacity (glibc default 7).
	TcacheCap = 7

	// brkIncrement is the granularity of heap-segment growth.
	brkIncrement = 1 << 16

	// tcacheKey is the canary glibc stores in free tcache entries to detect
	// double free ("e->key == tcache").
	tcacheKey = 0x7C0FFEE5AFE57CA5
)

// Allocation errors. ErrInvalidFree and ErrDoubleFree model glibc's abort
// diagnostics; ErrOutOfMemory models brk exhaustion.
var (
	ErrInvalidFree  = errors.New("heap: free(): invalid pointer")
	ErrInvalidSize  = errors.New("heap: free(): invalid size")
	ErrDoubleFree   = errors.New("heap: double free detected")
	ErrOutOfMemory  = errors.New("heap: out of memory")
	ErrSizeTooLarge = errors.New("heap: malloc(): requested size too large")
)

// Access is one allocator metadata access, recorded so the functional
// machine can emit it into the dynamic trace (allocator work shows up as
// real, unsigned memory instructions with real addresses).
type Access struct {
	Addr  uint64
	Store bool
}

// Stats aggregates the trace-malloc numbers reported in Tables II and III.
type Stats struct {
	Allocs   uint64 // total malloc/calloc/realloc-grow calls
	Frees    uint64 // total successful frees
	Live     uint64 // currently allocated chunks
	MaxLive  uint64 // maximum simultaneously allocated chunks
	BytesIn  uint64 // bytes currently allocated (payload)
	MaxBytes uint64 // peak payload bytes
}

// Allocator is a single-arena glibc-style allocator.
type Allocator struct {
	mem *mem.Memory
	allocState
}

// allocState is the allocator's host-side bookkeeping, the one field list
// that checkpoints capture (see snapshot.go).
type allocState struct {
	base  uint64 // segment start
	brk   uint64 // current segment end (grown in brkIncrement steps)
	limit uint64 // hard segment end
	top   uint64 // top (wilderness) chunk address

	fastbins [8]uint64     // singly linked LIFO by chunk size class
	tcache   [64]tcacheBin // singly linked LIFO, capped
	bins     [65]uint64    // doubly linked; [64] is the catch-all large bin
	sizes    ChunkTable    // payload sizes of live allocations (by ptr)
	accesses []Access
	stats    Stats

	hard       Hardening // software hardening features (see hardened.go)
	quarantine []uint64  // FIFO of freed-but-not-released pointers
}

type tcacheBin struct {
	head  uint64
	count int
}

// New creates an allocator managing [base, base+limit) of m. base must be
// 16-byte aligned.
func New(m *mem.Memory, base, limit uint64) *Allocator {
	if base%Align != 0 {
		panic("heap: unaligned base")
	}
	a := &Allocator{mem: m, allocState: allocState{
		base:  base,
		brk:   base,
		limit: base + limit,
	}}
	// Materialize the initial top chunk.
	a.extendBrk(brkIncrement)
	a.top = base
	a.setHeader(a.top, (a.brk-base)|prevInUse)
	return a
}

// Stats returns a copy of the allocator statistics.
func (a *Allocator) Stats() Stats { return a.stats }

// DrainAccesses returns and clears the recorded metadata accesses. The
// log's backing array is reused, so the returned slice is valid only until
// the next allocator call.
func (a *Allocator) DrainAccesses() []Access {
	out := a.accesses
	a.accesses = out[:0]
	return out
}

// Base returns the heap segment base address.
func (a *Allocator) Base() uint64 { return a.base }

func (a *Allocator) record(addr uint64, store bool) {
	a.accesses = append(a.accesses, Access{Addr: addr, Store: store})
}

// --- chunk header helpers (each counts as a recorded access) ---

func (a *Allocator) sizeWord(chunk uint64) uint64 {
	a.record(chunk+8, false)
	return a.mem.ReadU64(chunk + 8)
}

func (a *Allocator) setHeader(chunk, sizeFlags uint64) {
	a.record(chunk+8, true)
	a.mem.WriteU64(chunk+8, sizeFlags)
}

func (a *Allocator) chunkSize(chunk uint64) uint64 { return a.sizeWord(chunk) & sizeMask }

func (a *Allocator) prevSize(chunk uint64) uint64 {
	a.record(chunk, false)
	return a.mem.ReadU64(chunk)
}

func (a *Allocator) setPrevSize(chunk, v uint64) {
	a.record(chunk, true)
	a.mem.WriteU64(chunk, v)
}

func (a *Allocator) fd(chunk uint64) uint64 {
	a.record(chunk+16, false)
	return a.mem.ReadU64(chunk + 16)
}

func (a *Allocator) setFd(chunk, v uint64) {
	a.record(chunk+16, true)
	a.mem.WriteU64(chunk+16, v)
}

func (a *Allocator) bk(chunk uint64) uint64 {
	a.record(chunk+24, false)
	return a.mem.ReadU64(chunk + 24)
}

func (a *Allocator) setBk(chunk, v uint64) {
	a.record(chunk+24, true)
	a.mem.WriteU64(chunk+24, v)
}

func (a *Allocator) setPrevInUse(chunk uint64, inUse bool) {
	w := a.sizeWord(chunk)
	if inUse {
		w |= prevInUse
	} else {
		w &^= prevInUse
	}
	a.setHeader(chunk, w)
}

func (a *Allocator) extendBrk(n uint64) bool {
	if a.brk+n > a.limit {
		return false
	}
	a.brk += n
	return true
}

// --- size classing ---

// chunkSizeFor converts a payload request to a chunk size.
func chunkSizeFor(payload uint64) uint64 {
	if payload < Align {
		payload = Align
	}
	cs := (payload+Align-1)&^uint64(Align-1) + HeaderSize
	if cs < MinChunk {
		cs = MinChunk
	}
	return cs
}

func fastbinIndex(csize uint64) int { return int((csize - MinChunk) / Align) } // 32..144 -> 0..7

func tcacheIndex(csize uint64) int { return int((csize - MinChunk) / Align) } // 32..1040 -> 0..63

func binIndex(csize uint64) int {
	i := int((csize - MinChunk) / Align)
	if i >= 64 {
		return 64
	}
	return i
}

// --- doubly linked bin lists (links live in simulated memory) ---

func (a *Allocator) binPush(chunk, csize uint64) {
	idx := binIndex(csize)
	head := a.bins[idx]
	a.setFd(chunk, head)
	a.setBk(chunk, 0)
	if head != 0 {
		a.setBk(head, chunk)
	}
	a.bins[idx] = chunk
}

func (a *Allocator) binRemove(chunk, csize uint64) {
	idx := binIndex(csize)
	f := a.fd(chunk)
	b := a.bk(chunk)
	if b == 0 {
		a.bins[idx] = f
	} else {
		a.setFd(b, f)
	}
	if f != 0 {
		a.setBk(f, b)
	}
}

// Malloc allocates size payload bytes and returns a 16-byte-aligned
// pointer. Sizes are limited to 32 bits, matching the observation the
// bounds-compression format relies on.
func (a *Allocator) Malloc(size uint64) (uint64, error) {
	if size > 0xFFFFFFFF {
		return 0, ErrSizeTooLarge
	}
	csize := chunkSizeFor(size + a.canarySlack())

	chunk, err := a.allocateChunk(csize)
	if err != nil {
		return 0, err
	}
	ptr := chunk + HeaderSize
	a.sizes.Set(ptr, size)
	if a.hard.Canary {
		a.writeCanary(ptr, size)
	}
	a.stats.Allocs++
	a.stats.Live++
	if a.stats.Live > a.stats.MaxLive {
		a.stats.MaxLive = a.stats.Live
	}
	a.stats.BytesIn += size
	if a.stats.BytesIn > a.stats.MaxBytes {
		a.stats.MaxBytes = a.stats.BytesIn
	}
	return ptr, nil
}

func (a *Allocator) allocateChunk(csize uint64) (uint64, error) {
	// 1. tcache exact fit.
	if csize <= MaxTcachePayload+HeaderSize {
		idx := tcacheIndex(csize)
		if b := &a.tcache[idx]; b.head != 0 {
			chunk := b.head
			b.head = a.fd(chunk)
			b.count--
			return chunk, nil
		}
	}
	// 2. fastbin exact fit.
	if csize <= MaxFastPayload+HeaderSize {
		idx := fastbinIndex(csize)
		if head := a.fastbins[idx]; head != 0 {
			a.fastbins[idx] = a.fd(head)
			return head, nil
		}
	}
	// 3. binned free lists: exact class first, then larger classes
	// (first fit with split).
	for idx := binIndex(csize); idx < len(a.bins); idx++ {
		for chunk := a.bins[idx]; chunk != 0; chunk = a.fd(chunk) {
			have := a.chunkSize(chunk)
			if have < csize {
				continue // only possible in the catch-all bin
			}
			a.binRemove(chunk, have)
			a.takeChunk(chunk, have, csize)
			return chunk, nil
		}
	}
	// 4. carve from the top chunk.
	topSize := a.chunkSize(a.top)
	for topSize < csize+MinChunk {
		if !a.extendBrk(brkIncrement) {
			return 0, ErrOutOfMemory
		}
		topSize += brkIncrement
		a.setHeader(a.top, topSize|(a.sizeWord(a.top)&prevInUse))
	}
	chunk := a.top
	flags := a.sizeWord(chunk) & prevInUse
	a.top = chunk + csize
	a.setHeader(chunk, csize|flags)
	a.setHeader(a.top, (topSize-csize)|prevInUse)
	return chunk, nil
}

// takeChunk marks chunk (currently free, size have) as allocated with csize,
// splitting the remainder back into the bins when it is large enough.
func (a *Allocator) takeChunk(chunk, have, csize uint64) {
	if have >= csize+MinChunk {
		rem := chunk + csize
		remSize := have - csize
		a.setHeader(chunk, csize|(a.sizeWord(chunk)&prevInUse))
		a.setHeader(rem, remSize|prevInUse)
		a.setPrevSize(rem+remSize, remSize) // footer
		a.binPush(rem, remSize)
		if next := rem + remSize; next != a.top {
			a.setPrevInUse(next, false)
		} else {
			a.setPrevInUse(a.top, false)
		}
		return
	}
	// Use whole chunk.
	a.setHeader(chunk, have|(a.sizeWord(chunk)&prevInUse))
	next := chunk + have
	a.setPrevInUse(next, true)
}

// UsableSize returns the payload capacity of a live allocation (0 when ptr
// is not a live allocation).
func (a *Allocator) UsableSize(ptr uint64) uint64 {
	if !a.IsLive(ptr) {
		return 0
	}
	return a.chunkSizeNoTrace(ptr-HeaderSize) - HeaderSize
}

func (a *Allocator) chunkSizeNoTrace(chunk uint64) uint64 {
	return a.mem.ReadU64(chunk+8) & sizeMask
}

// RequestedSize returns the originally requested size for a live pointer.
func (a *Allocator) RequestedSize(ptr uint64) (uint64, bool) {
	return a.sizes.Get(ptr)
}

// IsLive reports whether ptr is a currently live allocation.
func (a *Allocator) IsLive(ptr uint64) bool {
	_, ok := a.sizes.Get(ptr)
	return ok
}

// Free releases an allocation. It reproduces glibc's observable behaviour:
// cheap integrity checks that a crafted-but-plausible chunk passes (House
// of Spirit), tcache/fastbin double-free detection, and boundary-tag
// coalescing that reads the neighbouring chunks' metadata.
func (a *Allocator) Free(ptr uint64) error {
	if ptr == 0 {
		return nil // free(NULL) is a no-op
	}
	if a.hard.Enabled() {
		return a.hardenedFree(ptr)
	}
	return a.freeChunk(ptr, false)
}

// freeChunk is the glibc release path. quarantined marks a deferred
// release coming out of the hardening quarantine: bookkeeping already
// happened at hardenedFree time, and the pointer is legitimately absent
// from the live set.
func (a *Allocator) freeChunk(ptr uint64, quarantined bool) error {
	// glibc checks only alignment and size plausibility here — not that the
	// pointer lies inside the heap segment. That looseness is exactly what
	// House of Spirit exploits: a crafted chunk outside the heap passes
	// these tests and enters a bin.
	if ptr%Align != 0 || ptr < HeaderSize {
		return ErrInvalidFree
	}
	chunk := ptr - HeaderSize
	csize := a.chunkSize(chunk)
	if csize < MinChunk || csize%Align != 0 {
		return ErrInvalidSize
	}
	inHeap := ptr >= a.base+HeaderSize && chunk+csize <= a.brk

	reqSize, wasLive := a.sizes.Get(ptr)

	// tcache layer.
	if csize <= MaxTcachePayload+HeaderSize {
		idx := tcacheIndex(csize)
		b := &a.tcache[idx]
		// glibc's tcache double-free check: the key field of a freed entry.
		a.record(ptr+8, false)
		if a.mem.ReadU64(ptr+8) == tcacheKey {
			for e := b.head; e != 0; e = a.fd(e) {
				if e == chunk {
					return fmt.Errorf("%w (tcache)", ErrDoubleFree)
				}
			}
		}
		if b.count < TcacheCap {
			a.setFd(chunk, b.head)
			a.record(ptr+8, true)
			a.mem.WriteU64(ptr+8, tcacheKey)
			b.head = chunk
			b.count++
			if !quarantined {
				a.noteFreed(ptr, wasLive, reqSize)
			}
			return nil
		}
	}

	// Fastbin layer.
	if csize <= MaxFastPayload+HeaderSize {
		idx := fastbinIndex(csize)
		if a.fastbins[idx] == chunk {
			return fmt.Errorf("%w or corruption (fasttop)", ErrDoubleFree)
		}
		// glibc sanity check: the next chunk's size must look valid.
		nextSize := a.chunkSize(chunk + csize)
		if nextSize < HeaderSize || chunk+csize+nextSize > a.brk+brkIncrement {
			return ErrInvalidSize
		}
		a.setFd(chunk, a.fastbins[idx])
		a.fastbins[idx] = chunk
		if !quarantined {
			a.noteFreed(ptr, wasLive, reqSize)
		}
		return nil
	}

	// Normal path: coalesce with neighbours (the legitimate out-of-bounds
	// metadata walks that motivate xpacm around free()).
	if (!wasLive && !quarantined) || !inHeap {
		return ErrInvalidFree
	}
	a.coalesceAndBin(chunk, csize)
	if !quarantined {
		a.noteFreed(ptr, wasLive, reqSize)
	}
	return nil
}

func (a *Allocator) noteFreed(ptr uint64, wasLive bool, reqSize uint64) {
	if wasLive {
		a.sizes.Delete(ptr)
		a.stats.Live--
		a.stats.BytesIn -= reqSize
	}
	a.stats.Frees++
}

func (a *Allocator) coalesceAndBin(chunk, csize uint64) {
	// Backward coalesce.
	if a.sizeWord(chunk)&prevInUse == 0 {
		ps := a.prevSize(chunk)
		if ps >= MinChunk && ps <= chunk-a.base {
			prev := chunk - ps
			a.binRemove(prev, a.chunkSize(prev))
			chunk = prev
			csize += ps
		}
	}
	// Forward coalesce.
	next := chunk + csize
	if next == a.top {
		// Merge into top.
		flags := a.sizeWord(chunk) & prevInUse
		topSize := a.chunkSize(a.top)
		a.top = chunk
		a.setHeader(a.top, (csize+topSize)|flags)
		return
	}
	nextSize := a.chunkSize(next)
	nextNext := next + nextSize
	nextFree := nextNext == a.top && a.sizeWord(a.top)&prevInUse == 0 ||
		nextNext < a.brk && a.sizeWord(nextNext)&prevInUse == 0
	if nextFree && next != a.top {
		a.binRemove(next, nextSize)
		csize += nextSize
		next = chunk + csize
		if next == a.top {
			flags := a.sizeWord(chunk) & prevInUse
			topSize := a.chunkSize(a.top)
			a.top = chunk
			a.setHeader(a.top, (csize+topSize)|flags)
			return
		}
	}
	a.setHeader(chunk, csize|(a.sizeWord(chunk)&prevInUse))
	a.setPrevSize(chunk+csize, csize) // footer
	a.setPrevInUse(chunk+csize, false)
	a.binPush(chunk, csize)
}

// Realloc resizes an allocation, moving it if necessary.
func (a *Allocator) Realloc(ptr, size uint64) (uint64, error) {
	if ptr == 0 {
		return a.Malloc(size)
	}
	old, ok := a.sizes.Get(ptr)
	if !ok {
		return 0, ErrInvalidFree
	}
	if size == 0 {
		if err := a.Free(ptr); err != nil {
			return 0, err
		}
		return 0, nil
	}
	if chunkSizeFor(size+a.canarySlack()) <= a.chunkSizeNoTrace(ptr-HeaderSize) {
		// Fits in place.
		a.stats.BytesIn += size - old
		a.sizes.Set(ptr, size)
		if a.hard.Canary {
			a.writeCanary(ptr, size)
		}
		return ptr, nil
	}
	np, err := a.Malloc(size)
	if err != nil {
		return 0, err
	}
	cp := old
	if size < cp {
		cp = size
	}
	a.mem.Copy(np, ptr, cp)
	if err := a.Free(ptr); err != nil {
		return 0, err
	}
	return np, nil
}

// Validate walks the whole heap and checks structural invariants: aligned,
// non-overlapping chunks that exactly tile [base, brk), consistent
// PREV_INUSE/footer pairs, and free-list members that are real free chunks.
// It returns the first violation found, or nil.
func (a *Allocator) Validate() error {
	freeSet := make(map[uint64]bool)
	for i := range a.bins {
		for c := a.bins[i]; c != 0; c = a.mem.ReadU64(c + 16) {
			if freeSet[c] {
				return fmt.Errorf("heap: free-list cycle or duplicate at %#x", c)
			}
			freeSet[c] = true
		}
	}
	fastSet := make(map[uint64]bool)
	for i := range a.fastbins {
		for c := a.fastbins[i]; c != 0; c = a.mem.ReadU64(c + 16) {
			if fastSet[c] {
				return fmt.Errorf("heap: fastbin cycle at %#x", c)
			}
			fastSet[c] = true
		}
	}
	tcSet := make(map[uint64]bool)
	for i := range a.tcache {
		n := 0
		for c := a.tcache[i].head; c != 0; c = a.mem.ReadU64(c + 16) {
			if tcSet[c] {
				return fmt.Errorf("heap: tcache cycle at %#x", c)
			}
			tcSet[c] = true
			n++
			if n > TcacheCap {
				return fmt.Errorf("heap: tcache bin %d over capacity", i)
			}
		}
		if n != a.tcache[i].count {
			return fmt.Errorf("heap: tcache bin %d count mismatch: %d != %d", i, n, a.tcache[i].count)
		}
	}

	prevFree := false
	for c := a.base; c < a.brk; {
		cs := a.chunkSizeNoTrace(c)
		if cs < MinChunk || cs%Align != 0 {
			return fmt.Errorf("heap: bad chunk size %#x at %#x", cs, c)
		}
		if c+cs > a.brk {
			return fmt.Errorf("heap: chunk at %#x overruns brk", c)
		}
		w := a.mem.ReadU64(c + 8)
		if c != a.base && (w&prevInUse == 0) != prevFree {
			return fmt.Errorf("heap: PREV_INUSE mismatch at %#x", c)
		}
		if c == a.top {
			if c+cs != a.brk {
				return fmt.Errorf("heap: top chunk does not reach brk")
			}
			return nil
		}
		isBinFree := freeSet[c]
		if isBinFree {
			// Footer must replicate the size.
			if a.mem.ReadU64(c+cs) != cs {
				return fmt.Errorf("heap: bad footer for free chunk at %#x", c)
			}
		}
		prevFree = isBinFree // fastbin/tcache chunks keep PREV_INUSE set
		c += cs
	}
	return errors.New("heap: walk never reached top chunk")
}
