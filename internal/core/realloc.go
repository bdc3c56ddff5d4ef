package core

import (
	"aos/internal/instrument"
	"aos/internal/isa"
	"aos/internal/kernel"
	"aos/internal/pa"
)

// Realloc simulates an instrumented realloc(p, size) call. The protocol
// composes the free-side and allocation-side sequences of the active
// scheme around the allocator call: under AOS (Fig 7) that is
//
//	bndclr(old) ; xpacm ; call realloc ; ret ;
//	pacma(old, xzr)            — temporal-safety lock on the old value
//	pacma(new, size) ; bndstr  — sign and insert the (possibly moved) chunk
//
// so the old signed pointer is dead after every realloc — even an in-place
// one, whose fresh signature differs because the size is a PAC modifier.
// realloc(p, 0) behaves as free(p); realloc with a nil pointer as malloc.
// PACSan/CryptSan both report realloc chains as the classic blind spot of
// PA-based schemes, which is why the sequence is spelled out here rather
// than composed ad hoc by workloads.
func (m *Machine) Realloc(p Ptr, size uint64) (Ptr, error) {
	if p.Raw == 0 {
		return m.Malloc(size)
	}
	if size == 0 {
		return Ptr{}, m.Free(p)
	}
	if m.tel != nil {
		defer m.telRefresh()
	}
	switch {
	case m.Scheme.SignsDataPointers():
		return m.reallocAOS(p, size)
	case m.Scheme.HasWatchdogChecks():
		return m.reallocWatchdog(p, size)
	case m.Scheme.UsesMemoryTagging():
		return m.reallocMTE(p, size)
	default:
		nva, _, err := m.reallocCall(p.VA(), size)
		if err != nil {
			return Ptr{}, err
		}
		return Ptr{Raw: nva, Size: size}, nil
	}
}

// reallocCall is the allocator portion shared by every scheme: the call,
// the allocator's metadata traffic, and — when the chunk moved — the copy
// traffic, one load/store pair per 64-byte line.
func (m *Machine) reallocCall(va, size uint64) (nva uint64, moved bool, err error) {
	old, _ := m.Heap.RequestedSize(va)
	m.Call()
	nva, err = m.Heap.Realloc(va, size)
	m.emitAllocatorWork()
	if err == nil && nva != va {
		moved = true
		cp := old
		if size < cp {
			cp = size
		}
		for off := uint64(0); off < cp; off += 64 {
			m.rawAccess(va+off, false, DepChase)
			m.rawAccess(nva+off, true, DepChase)
		}
	}
	m.Ret()
	return nva, moved, err
}

// reallocAOS composes Fig 7b's free sequence with Fig 7a's allocation
// sequence around the allocator call.
func (m *Machine) reallocAOS(p Ptr, size uint64) (Ptr, error) {
	va := p.VA()
	pacv := pa.PAC(p.Raw)
	table := m.OS.Table()

	way, found := table.Clear(pacv, va)
	m.countClear(found)
	homeWay := int8(way)
	var excErr error
	if !found || !p.Signed() {
		homeWay = -1
		excErr = m.OS.RaiseException(kernel.ExcBoundsClear, p.Raw,
			"bndclr found no bounds: realloc of a stale or foreign pointer")
	}
	m.emit(isa.Inst{Op: isa.OpBndclr, Addr: p.Raw, Signed: p.Signed(),
		PAC: pacv, AHC: pa.AHC(p.Raw), HomeWay: homeWay,
		Assoc: uint8(table.Assoc()), RowAddr: table.RowAddr(pacv),
		Dest: isa.RegNone, Src1: m.lastLoad, Src2: isa.RegNone})
	if excErr != nil {
		// Exception recorded, realloc suppressed (the handler blocked the
		// stale pointer before the allocator saw it).
		return Ptr{}, excErr
	}

	dPtr := m.allocReg()
	m.emit(isa.Inst{Op: isa.OpXpacm, Dest: dPtr, Src1: m.lastLoad, Src2: isa.RegNone})

	nva, _, err := m.reallocCall(va, size)

	// pacma with xzr size: lock the old pointer value. Applied whether or
	// not the chunk moved — an in-place realloc re-signs with the new size
	// as modifier, so the old signature must die here too.
	m.emit(isa.Inst{Op: isa.OpPacma, Addr: m.PAUnit.SignData(pa.KeyDA, va, m.sp, 0),
		Dest: dPtr, Src1: dPtr, Src2: isa.RegNone})
	if err != nil {
		return Ptr{}, err
	}
	return m.signAndStore(nva, size)
}

// reallocWatchdog invalidates the old identifier (Fig 5a case 2), calls
// the allocator, and assigns a fresh identifier to the resulting chunk —
// in place or moved, the old key is dead either way.
func (m *Machine) reallocWatchdog(p Ptr, size uint64) (Ptr, error) {
	va := p.VA()
	if lock, ok := m.wdLockOf.Get(va); ok {
		m.Mem.WriteU64(lock, 0) // INVALID
		m.rawAccess(lock, true, DepFree)
		m.rawAccess(lock, true, DepFree) // add_free_list(id.lock)
		m.emit(isa.Inst{Op: isa.OpWDClrID, Dest: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone})
		m.wdFreeLocks = append(m.wdFreeLocks, lock)
	}
	nva, _, err := m.reallocCall(va, size)
	if err != nil {
		return Ptr{}, err
	}
	return Ptr{Raw: nva, Size: size, WDKey: m.watchdogSetID(nva, size)}, nil
}

// reallocMTE checks the pointer tag, calls the allocator, retags the old
// extent to 0 and the new extent with a fresh allocation tag, so stale
// pointers fault exactly as they do after free+malloc.
func (m *Machine) reallocMTE(p Ptr, size uint64) (Ptr, error) {
	va := p.VA()
	if ptag := mteTagOf(p.Raw); ptag != m.mteMemTag(va) {
		return Ptr{}, m.OS.RaiseException(kernel.ExcBoundsClear, p.Raw,
			"mte: tag mismatch on realloc (stale or invalid pointer)")
	}
	oldSize, _ := m.Heap.RequestedSize(va)
	nva, _, err := m.reallocCall(va, size)
	if err != nil {
		return Ptr{}, err
	}
	// Retag the old extent back to 0 (also for in-place growth: granules
	// beyond the new extent must not keep the stale tag), then tag the new
	// extent — irg + stg per granule, as on malloc.
	for g, n := uint64(0), mteGranules(oldSize); g < n; g++ {
		gva := va + g*instrument.TagGranule
		m.mteTags.WriteU8(gva>>mteGranuleShift, 0)
		m.emit(isa.Inst{Op: isa.OpSTG, Addr: mteTagAddr(gva), Size: instrument.TagGranule,
			Dest: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone})
	}
	return m.mteTagAlloc(nva, size)
}
