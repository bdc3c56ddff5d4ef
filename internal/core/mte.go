package core

import (
	"aos/internal/instrument"
	"aos/internal/isa"
	"aos/internal/kernel"
)

// MTE model: 4-bit lock-and-key memory tagging (Serebryany et al.).
// malloc rounds the allocation to 16-byte tag granules, picks an
// allocation tag (deterministic 1..15 cycling — tag 0 is reserved for
// untagged/freed memory) and retags every granule; free checks the
// pointer's tag against memory and retags the granules back to 0; every
// load/store compares the pointer tag with the accessed granule's tag.
//
// The tag lives in pointer bits [59:56] (the ARM top-byte position),
// well clear of the PAC field ([63:48], unused here — MTE never signs)
// and the address bits the simulator masks with pa.VAMask, so
// composeOffset and Ptr.VA work unchanged. The timing model sees tags in
// a shadow region off kernel.ShadowBase at MTE's architectural density
// (4 bits per 16-byte granule, one byte of tag storage per 32 data
// bytes): the stg drains model the tag-memory write traffic. The
// functional tags live densely in a private mem.Memory, one byte per
// granule at the granule's index (va>>4), so they are page-shaped and a
// checkpoint shares them copy-on-write like the address space.
//
// What the model honestly does not catch: an overflow that stays inside
// the allocation's last, rounding-padded granule, and — in real MTE —
// any violation landing on a granule that reuses the pointer's tag
// (1 in 15 for far-away granules; see security.MTEBypassProbability).
// The deterministic tag cycle makes every simulated attack reproducible.

const (
	// mteTagShift places the tag in the pointer's top byte.
	mteTagShift = 56
	// mteGranuleShift converts a VA to its granule index.
	mteGranuleShift = 4
	// mteShadowCompress is the data-to-tag-storage ratio (16 B granule,
	// 4-bit tag → 32:1).
	mteShadowCompress = 32
)

func mteTagOf(raw uint64) uint8 { return uint8(raw>>mteTagShift) & (instrument.NumTags - 1) }

func mteSetTag(va uint64, tag uint8) uint64 {
	return va&^(uint64(instrument.NumTags-1)<<mteTagShift) | uint64(tag)<<mteTagShift
}

// mteTagAddr is the shadow address holding a granule's tag.
func mteTagAddr(gva uint64) uint64 {
	return kernel.ShadowBase + (gva-kernel.HeapBase)/mteShadowCompress
}

// mteGranules is the number of tag granules covering an allocation.
func mteGranules(size uint64) uint64 {
	return (sizeOrMin(size) + instrument.TagGranule - 1) / instrument.TagGranule
}

// mteNextTag cycles deterministically through the 15 allocation tags.
func (m *Machine) mteNextTag() uint8 {
	m.mteNext++
	if m.mteNext >= instrument.NumTags {
		m.mteNext = 1
	}
	return m.mteNext
}

// mteMemTag returns the current memory tag of the granule holding va
// (0 for never-tagged memory: headers, globals, stack, freed granules).
func (m *Machine) mteMemTag(va uint64) uint8 { return m.mteTags.ReadU8(va >> mteGranuleShift) }

// mteTagAlloc performs MTE's allocation-side instrumentation: irg picks
// the tag, one stg per granule writes it, and the returned pointer
// carries the tag in its top byte.
func (m *Machine) mteTagAlloc(va, size uint64) (Ptr, error) {
	tag := m.mteNextTag()
	d := m.allocReg()
	m.emit(isa.Inst{Op: isa.OpIRG, Dest: d, Src1: m.lastLoad, Src2: isa.RegNone})
	for g, n := uint64(0), mteGranules(size); g < n; g++ {
		gva := va + g*instrument.TagGranule
		m.mteTags.WriteU8(gva>>mteGranuleShift, tag)
		m.emit(isa.Inst{Op: isa.OpSTG, Addr: mteTagAddr(gva), Size: instrument.TagGranule,
			Dest: isa.RegNone, Src1: d, Src2: isa.RegNone})
	}
	return Ptr{Raw: mteSetTag(va, tag), Size: size}, nil
}

// freeMTE checks the pointer tag against memory before releasing, then
// retags the freed granules to 0 so stale pointers (and a second free)
// fault on their next use.
func (m *Machine) freeMTE(p Ptr) error {
	va := p.VA()
	if ptag := mteTagOf(p.Raw); ptag != m.mteMemTag(va) {
		return m.OS.RaiseException(kernel.ExcBoundsClear, p.Raw,
			"mte: tag mismatch on free (double free or invalid free)")
	}
	wasLive := m.Heap.IsLive(va)
	size, _ := m.Heap.RequestedSize(va)

	m.Call()
	err := m.Heap.Free(va)
	m.emitAllocatorWork()
	m.Ret()

	if wasLive {
		for g, n := uint64(0), mteGranules(size); g < n; g++ {
			gva := va + g*instrument.TagGranule
			m.mteTags.WriteU8(gva>>mteGranuleShift, 0)
			m.emit(isa.Inst{Op: isa.OpSTG, Addr: mteTagAddr(gva), Size: instrument.TagGranule,
				Dest: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone})
		}
	}
	return err
}

// mteCheckAccess is the per-access tag compare. It rides on the access
// itself (no extra instruction — the check is part of the load/store in
// MTE hardware); only the granule of the access's first byte is checked,
// matching the model's 8-byte, aligned accesses.
func (m *Machine) mteCheckAccess(p Ptr, addr, va uint64) error {
	if mteTagOf(addr) == m.mteMemTag(va) {
		return nil
	}
	kind := "mte: tag mismatch (out-of-bounds)"
	if !m.Heap.IsLive(p.VA()) {
		kind = "mte: tag mismatch (use-after-free)"
	}
	return m.OS.RaiseException(kernel.ExcBoundsCheck, addr, kind)
}
