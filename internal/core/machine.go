// Package core implements the functional AOS machine: it executes workload
// operations (allocation, pointer dereference, computation, control flow)
// against the simulated heap, PA unit, hashed bounds table and OS, applies
// the active protection scheme's instrumentation (§IV), performs the
// architectural bounds checks, and emits the resulting dynamic instruction
// stream to a Sink (usually the timing core).
//
// The machine resolves everything the timing model needs but cannot know:
// effective addresses, pointer signedness, the HBT way where each access's
// bounds reside, resize events, and memory-safety verdicts.
package core

import (
	"fmt"
	"math"

	"aos/internal/hbt"
	"aos/internal/heap"
	"aos/internal/instrument"
	"aos/internal/isa"
	"aos/internal/kernel"
	"aos/internal/mem"
	"aos/internal/pa"
)

// Dep tells the machine how to wire an operation's source register, which
// controls the instruction-level parallelism the timing core sees.
type Dep uint8

// Dependency shapes.
const (
	// DepFree has no interesting dependency (ready at dispatch).
	DepFree Dep = iota
	// DepChain depends on the most recent ALU result (serial chain).
	DepChain
	// DepChase depends on the most recent load result (pointer chasing).
	DepChase
)

// AccessOpts qualifies a memory access.
type AccessOpts struct {
	// Dep selects the address register's producer.
	Dep Dep
	// Pointer marks that the accessed value is itself a pointer: Watchdog
	// must move its shadow metadata, and PA performs on-load
	// authentication / pre-store signing.
	Pointer bool
}

// Ptr is a pointer value as the instrumented program holds it: under
// AOS/PA+AOS the raw value carries the PAC and AHC in its upper bits.
type Ptr struct {
	// Raw is the architectural pointer value.
	Raw uint64
	// Size is the allocation's requested size (0 when unknown/foreign).
	Size uint64
	// WDKey is the Watchdog identifier travelling with the pointer (the
	// fat-pointer metadata of Fig 5a); zero outside the Watchdog scheme.
	WDKey uint64
}

// VA returns the raw virtual address (upper bits stripped).
func (p Ptr) VA() uint64 { return pa.VA(p.Raw) }

// Signed reports whether the pointer carries a nonzero AHC.
func (p Ptr) Signed() bool { return pa.IsSigned(p.Raw) }

// Config parameterizes the machine.
type Config struct {
	// Scheme is the protection configuration to simulate.
	Scheme instrument.Scheme
	// InitialHBTAssoc is the starting bounds-table associativity
	// (paper: 1).
	InitialHBTAssoc int
	// CodeFootprint is the synthetic static code size in bytes that PCs
	// cycle through (drives I-cache behaviour). Zero means 16 KiB.
	CodeFootprint uint64
	// UncompressedBounds disables the 8-byte bounds compression (Fig 15
	// ablation): entries take 16 bytes, so each HBT way holds only four.
	UncompressedBounds bool
}

// Machine is the functional simulator state for one process.
type Machine struct {
	Mem    *mem.Memory
	Heap   *heap.Allocator
	PAUnit *pa.Unit
	OS     *kernel.OS

	sink isa.Sink
	// batch, when non-nil, buffers emitted instructions so the sink
	// receives them in EmitBatch-sized chunks (see SetBatch). counts are
	// still updated per instruction at emit time, so Counts() — and the
	// warmup boundary derived from it — are independent of batching.
	batch []isa.Inst

	// machineState is everything a checkpoint captures beyond the address
	// spaces, allocator and OS (see snapshot.go).
	machineState

	// mteTags holds the MTE memory tags, one byte per granule at the
	// granule's index (va>>4) in a private space (see mte.go).
	mteTags *mem.Memory

	// tel holds the machine-side flight-recorder probes (nil when
	// telemetry is disabled; see telemetry.go).
	tel *machineProbes
}

// machineState is the machine's own simulated state: emission position
// and counts plus the Watchdog, MTE and bounds-table bookkeeping. It is
// the one field list checkpoints capture: Snapshot copies it whole and
// clones its slice and table, and Restore copies those two into the
// machine's own buffers.
type machineState struct {
	// Scheme is the protection configuration being simulated.
	Scheme instrument.Scheme

	counts isa.Counts

	pc       uint64
	codeSize uint64
	sp       uint64

	nextReg  uint8
	lastALU  uint8
	lastLoad uint8

	// Watchdog state: allocation identifiers and lock locations.
	wdNextKey    uint64
	wdLockCursor uint64
	wdFreeLocks  []uint64
	// wdLockOf maps a chunk base VA to its lock address. Free never
	// deletes an entry: a stale pointer must still find its old lock.
	wdLockOf heap.ChunkTable

	// mteNext is MTE's deterministic allocation-tag cycle (see mte.go).
	mteNext uint8

	// Bounds-table event totals since construction; the telemetry
	// counters of the same names follow them (see telemetry.go).
	hbtInserts, hbtClears, hbtMigrated uint64
}

// New builds a machine for the given configuration.
func New(cfg Config) (*Machine, error) {
	if cfg.InitialHBTAssoc == 0 {
		cfg.InitialHBTAssoc = 1
	}
	if cfg.CodeFootprint == 0 {
		cfg.CodeFootprint = 16 << 10
	}
	m := mem.New()
	entryBytes := 8
	if cfg.UncompressedBounds {
		entryBytes = 16
	}
	os, err := kernel.NewOSEntrySize(m, cfg.InitialHBTAssoc, entryBytes)
	if err != nil {
		return nil, err
	}
	h := heap.New(m, kernel.HeapBase, kernel.HeapLimit)
	if cfg.Scheme.HasHardenedAllocator() {
		h.SetHardening(heap.DefaultHardening())
	}
	var mteTags *mem.Memory
	if cfg.Scheme.UsesMemoryTagging() {
		mteTags = mem.New()
	}
	return &Machine{
		Mem:    m,
		Heap:   h,
		PAUnit: pa.NewDefaultUnit(),
		OS:     os,
		sink:   isa.NullSink{},
		machineState: machineState{
			Scheme:       cfg.Scheme,
			codeSize:     cfg.CodeFootprint &^ 3,
			sp:           kernel.StackTop,
			wdLockCursor: kernel.ShadowBase,
		},
		mteTags: mteTags,
	}, nil
}

// SetSink directs the emitted instruction stream (nil restores discard).
// Pending batched instructions are flushed to the old sink first.
func (m *Machine) SetSink(s isa.Sink) {
	m.Flush()
	if s == nil {
		s = isa.NullSink{}
	}
	m.sink = s
}

// EmitBatchSize is the default emission batch capacity: large enough to
// amortize the per-batch interface dispatch into noise, small enough that
// the buffer stays L1/L2-resident.
const EmitBatchSize = 512

// SetBatch switches emission batching: n > 1 buffers up to n instructions
// and delivers them through the sink's EmitBatch (isa.BatchSink) — or
// one-at-a-time Emit for plain sinks — while n <= 1 restores immediate
// per-instruction delivery. Pending instructions are flushed on every
// transition. Batching reorders nothing: each sink sees the exact scalar
// instruction order, just in chunks, so timing results are unchanged.
// Callers that read sink-side state mid-stream (e.g. resetting timing
// statistics at a warmup boundary) must Flush first; experiments.Cell does.
func (m *Machine) SetBatch(n int) {
	m.Flush()
	if n <= 1 {
		m.batch = nil
		return
	}
	m.batch = make([]isa.Inst, 0, n)
}

// Flush delivers any buffered instructions to the sink. It is a no-op
// when batching is off or the buffer is empty.
func (m *Machine) Flush() {
	if len(m.batch) == 0 {
		return
	}
	isa.EmitAll(m.sink, m.batch)
	m.batch = m.batch[:0]
}

// Counts returns the dynamic instruction statistics accumulated so far
// (the Fig 16 data).
func (m *Machine) Counts() isa.Counts { return m.counts }

// Exceptions returns the recorded memory-safety exceptions.
func (m *Machine) Exceptions() []kernel.Exception { return m.OS.Exceptions() }

// Table returns the current hashed bounds table.
func (m *Machine) Table() *hbt.Table { return m.OS.Table() }

func (m *Machine) emit(in isa.Inst) {
	in.PC = kernel.TextBase + m.pc
	m.pc += 4
	if m.pc >= m.codeSize {
		m.pc = 0
	}
	if m.batch != nil {
		//aoslint:allow hotpathalloc — batch is preallocated to BatchSize and flushed at cap; append never grows
		m.batch = append(m.batch, in)
		m.counts.Add(&m.batch[len(m.batch)-1])
		if len(m.batch) == cap(m.batch) {
			m.Flush()
		}
		return
	}
	m.emitScalar(in)
}

// emitScalar delivers one instruction straight to the sink. It is a
// separate function so that taking the instruction's address for the
// interface call — which makes it escape — heap-allocates only on the
// scalar path, keeping batched emit() allocation-free.
func (m *Machine) emitScalar(in isa.Inst) {
	m.counts.Add(&in) //aoslint:allow hotpathalloc — the escape is this function's documented purpose: it fences the scalar-path allocation off the batched path
	m.sink.Emit(&in)
}

func (m *Machine) allocReg() uint8 {
	m.nextReg++
	if m.nextReg >= isa.NumRegs-2 {
		m.nextReg = 1
	}
	return m.nextReg
}

func (m *Machine) srcFor(d Dep) uint8 {
	switch d {
	case DepChain:
		return m.lastALU
	case DepChase:
		return m.lastLoad
	default:
		return isa.RegNone
	}
}

// --- computation and control flow ---

// Compute emits n integer ALU operations with the given dependency shape.
func (m *Machine) Compute(n int, dep Dep) {
	for i := 0; i < n; i++ {
		d := m.allocReg()
		m.emit(isa.Inst{Op: isa.OpALU, Dest: d, Src1: m.srcFor(dep), Src2: isa.RegNone})
		m.lastALU = d
	}
}

// ComputeMul emits n multiply-class (3-cycle) operations.
func (m *Machine) ComputeMul(n int, dep Dep) {
	for i := 0; i < n; i++ {
		d := m.allocReg()
		m.emit(isa.Inst{Op: isa.OpMul, Dest: d, Src1: m.srcFor(dep), Src2: isa.RegNone})
		m.lastALU = d
	}
}

// ComputeFP emits n floating-point operations.
func (m *Machine) ComputeFP(n int, dep Dep) {
	for i := 0; i < n; i++ {
		d := m.allocReg()
		m.emit(isa.Inst{Op: isa.OpFP, Dest: d, Src1: m.srcFor(dep), Src2: isa.RegNone})
		m.lastALU = d
	}
}

// Branch emits a conditional branch with the given static id and outcome.
func (m *Machine) Branch(id uint32, taken bool) {
	m.emit(isa.Inst{Op: isa.OpBranch, BranchID: id, Taken: taken,
		Dest: isa.RegNone, Src1: m.lastALU, Src2: isa.RegNone})
}

// Call emits a function-call event: the call itself, the frame push, and —
// under return-address signing — the pacia of the link register (Fig 3).
func (m *Machine) Call() {
	lr := isa.RegNone
	if m.Scheme.HasReturnAddressSigning() {
		d := m.allocReg()
		m.emit(isa.Inst{Op: isa.OpPacia, Dest: d, Src1: isa.RegNone, Src2: isa.RegNone})
		lr = d
	}
	m.emit(isa.Inst{Op: isa.OpCall, Dest: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone})
	m.sp -= 16
	// stp fp, lr: the frame push stores the (possibly signed) link register,
	// so it waits on pacia's 4-cycle crypto.
	m.emit(isa.Inst{Op: isa.OpStore, Addr: m.sp, Size: 8,
		Dest: isa.RegNone, Src1: isa.RegNone, Src2: lr})
}

// Ret emits the matching return: frame pop, autia under return-address
// signing, and the return.
func (m *Machine) Ret() {
	m.rawAccess(m.sp, false, DepFree) // ldp fp, lr
	m.sp += 16
	src := m.lastLoad
	if m.Scheme.HasReturnAddressSigning() {
		d := m.allocReg()
		m.emit(isa.Inst{Op: isa.OpAutia, Dest: d, Src1: m.lastLoad, Src2: isa.RegNone})
		src = d
	}
	m.emit(isa.Inst{Op: isa.OpRet, Dest: isa.RegNone, Src1: src, Src2: isa.RegNone})
}

// --- raw (unsigned) memory accesses: stack, globals, allocator metadata ---

func (m *Machine) rawAccess(addr uint64, store bool, dep Dep) {
	// Direct stack/global accesses have statically known bounds; Watchdog's
	// check micro-ops guard pointer dereferences (the heap path).
	if store {
		m.emit(isa.Inst{Op: isa.OpStore, Addr: addr, Size: 8,
			Dest: isa.RegNone, Src1: m.srcFor(dep), Src2: m.lastALU})
		return
	}
	d := m.allocReg()
	m.emit(isa.Inst{Op: isa.OpLoad, Addr: addr, Size: 8,
		Dest: d, Src1: m.srcFor(dep), Src2: isa.RegNone})
	m.lastLoad = d
}

// shadowAccess is a Watchdog shadow-memory micro-op: it moves identifier
// metadata and is itself never check-instrumented.
func (m *Machine) shadowAccess(addr uint64, store bool, dep Dep) {
	if store {
		m.emit(isa.Inst{Op: isa.OpStore, Addr: addr, Size: 8,
			Dest: isa.RegNone, Src1: m.srcFor(dep), Src2: m.lastALU})
		return
	}
	d := m.allocReg()
	m.emit(isa.Inst{Op: isa.OpLoad, Addr: addr, Size: 8,
		Dest: d, Src1: m.srcFor(dep), Src2: isa.RegNone})
}

// RawLoad performs an unchecked load from an arbitrary address (stack or
// global data).
func (m *Machine) RawLoad(addr uint64, dep Dep) { m.rawAccess(addr, false, dep) }

// RawStore performs an unchecked store.
func (m *Machine) RawStore(addr uint64, dep Dep) { m.rawAccess(addr, true, dep) }

// emitAllocatorWork replays the allocator's recorded metadata accesses as
// unsigned memory instructions (the allocator operates on stripped
// pointers; that is what xpacm before free() is for).
func (m *Machine) emitAllocatorWork() {
	for _, acc := range m.Heap.DrainAccesses() {
		m.rawAccess(acc.Addr, acc.Store, DepChase)
	}
}

// --- allocation ---

// Malloc simulates an instrumented malloc() call (Fig 7a): the call, the
// allocator's own work, and under AOS the pacma + bndstr pair.
func (m *Machine) Malloc(size uint64) (Ptr, error) {
	m.Call()
	va, err := m.Heap.Malloc(size)
	m.emitAllocatorWork()
	m.Ret()
	if err != nil {
		return Ptr{}, err
	}

	if m.tel != nil {
		defer m.telRefresh()
	}
	switch {
	case m.Scheme.SignsDataPointers():
		return m.signAndStore(va, size)
	case m.Scheme.HasWatchdogChecks():
		return Ptr{Raw: va, Size: size, WDKey: m.watchdogSetID(va, size)}, nil
	case m.Scheme.UsesMemoryTagging():
		return m.mteTagAlloc(va, size)
	}
	return Ptr{Raw: va, Size: size}, nil
}

// Calloc is Malloc with zeroing (the zeroing stores are emitted). A total
// past the allocator's 32-bit size limit, overflowing or not, fails with
// heap.ErrSizeTooLarge before anything is emitted.
func (m *Machine) Calloc(n, size uint64) (Ptr, error) {
	if n != 0 && size > math.MaxUint32/n {
		return Ptr{}, heap.ErrSizeTooLarge
	}
	total := n * size
	p, err := m.Malloc(total)
	if err != nil {
		return Ptr{}, err
	}
	m.Mem.Zero(p.VA(), total)
	for off := uint64(0); off < total; off += 64 {
		m.rawAccess(p.VA()+off, true, DepFree)
	}
	return p, nil
}

// signAndStore performs the AOS allocation-side instrumentation: pacma
// signs the pointer; bndstr inserts the bounds, resizing the table via the
// OS on insertion failure.
func (m *Machine) signAndStore(va, size uint64) (Ptr, error) {
	signed := m.PAUnit.SignData(pa.KeyDA, va, m.sp, size)
	dPac := m.allocReg()
	m.emit(isa.Inst{Op: isa.OpPacma, Addr: signed, Size: uint32(size),
		Dest: dPac, Src1: m.lastLoad, Src2: isa.RegNone})

	pacv := pa.PAC(signed)
	table := m.OS.Table()
	resized := false
	way, err := table.Insert(pacv, va, sizeOrMin(size))
	if err == hbt.ErrTableFull {
		oldBytes := table.SizeBytes()
		if table, err = m.OS.HandleTableFull(); err != nil {
			return Ptr{}, err
		}
		resized = true
		m.hbtMigrated += oldBytes
		if m.tel != nil {
			m.tel.hbtMigrated.Add(oldBytes)
		}
		if way, err = table.Insert(pacv, va, sizeOrMin(size)); err != nil {
			return Ptr{}, err
		}
	} else if err != nil {
		return Ptr{}, err
	}
	m.hbtInserts++
	if m.tel != nil {
		m.tel.hbtInserts.Add(1)
	}
	m.emit(isa.Inst{Op: isa.OpBndstr, Addr: signed, Size: uint32(size),
		Signed: true, PAC: pacv, AHC: pa.AHC(signed),
		HomeWay: int8(way), Assoc: uint8(table.Assoc()), RowAddr: table.RowAddr(pacv),
		Resize: resized, Dest: isa.RegNone, Src1: dPac, Src2: isa.RegNone})
	return Ptr{Raw: signed, Size: size}, nil
}

// sizeOrMin keeps zero-size allocations representable in the bounds format
// (malloc(0) returns a minimal usable chunk).
func sizeOrMin(size uint64) uint64 {
	if size == 0 {
		return 16
	}
	return size
}

// watchdogSetID performs Watchdog's allocation instrumentation (Fig 5a
// case 1): assign a key, allocate a lock location, store the key to it,
// and write the 24-byte metadata record.
func (m *Machine) watchdogSetID(va, size uint64) uint64 {
	m.wdNextKey++
	var lock uint64
	if n := len(m.wdFreeLocks); n > 0 {
		lock = m.wdFreeLocks[n-1]
		m.wdFreeLocks = m.wdFreeLocks[:n-1]
		m.rawAccess(lock, false, DepFree) // pop from the lock free list
	} else {
		lock = m.wdLockCursor
		m.wdLockCursor += instrument.WDMetaBytes
	}
	m.wdLockOf.Set(va, lock)
	m.Mem.WriteU64(lock, m.wdNextKey)
	m.emit(isa.Inst{Op: isa.OpWDSetID, Dest: m.allocReg(), Src1: isa.RegNone, Src2: isa.RegNone})
	m.rawAccess(lock, true, DepFree)   // *(lock) = key
	m.rawAccess(lock+8, true, DepFree) // metadata record: base/bound words
	m.rawAccess(lock+16, true, DepFree)
	return m.wdNextKey
}

// --- deallocation ---

// Free simulates an instrumented free() (Fig 7b): bndclr, xpacm, the
// allocator's work on the stripped pointer, and the re-signing pacma that
// locks the dangling pointer.
func (m *Machine) Free(p Ptr) error {
	if m.tel != nil {
		defer m.telRefresh()
	}
	switch {
	case m.Scheme.SignsDataPointers():
		return m.freeAOS(p)
	case m.Scheme.HasWatchdogChecks():
		return m.freeWatchdog(p)
	case m.Scheme.UsesMemoryTagging():
		return m.freeMTE(p)
	default:
		m.Call()
		err := m.Heap.Free(p.VA())
		m.emitAllocatorWork()
		m.Ret()
		return err
	}
}

func (m *Machine) freeAOS(p Ptr) error {
	va := p.VA()
	pacv := pa.PAC(p.Raw)
	table := m.OS.Table()

	// bndclr: clear the bounds; failure means double free, a forged
	// pointer, or free() of an address that was never signed.
	way, found := table.Clear(pacv, va)
	m.countClear(found)
	homeWay := int8(way)
	var excErr error
	if !found || !p.Signed() {
		homeWay = -1
		excErr = m.OS.RaiseException(kernel.ExcBoundsClear, p.Raw,
			"bndclr found no bounds: double free or invalid free()")
	}
	// The freed pointer arrives through the load chain, same convention as
	// signAndStore's pacma operand.
	m.emit(isa.Inst{Op: isa.OpBndclr, Addr: p.Raw, Signed: p.Signed(),
		PAC: pacv, AHC: pa.AHC(p.Raw), HomeWay: homeWay,
		Assoc: uint8(table.Assoc()), RowAddr: table.RowAddr(pacv),
		Dest: isa.RegNone, Src1: m.lastLoad, Src2: isa.RegNone})
	if excErr != nil {
		return excErr
	}
	if !found {
		// Exception recorded but process resumed: free() is not executed
		// (the handler blocked the attack).
		return nil
	}

	// xpacm: strip so the allocator's neighbour-metadata walks are not
	// bounds-checked.
	dPtr := m.allocReg()
	m.emit(isa.Inst{Op: isa.OpXpacm, Dest: dPtr, Src1: m.lastLoad, Src2: isa.RegNone})

	m.Call()
	err := m.Heap.Free(va)
	m.emitAllocatorWork()
	m.Ret()

	// pacma with xzr size: re-sign (lock) the freed pointer.
	m.emit(isa.Inst{Op: isa.OpPacma, Addr: m.PAUnit.SignData(pa.KeyDA, va, m.sp, 0),
		Dest: dPtr, Src1: dPtr, Src2: isa.RegNone})
	return err
}

func (m *Machine) freeWatchdog(p Ptr) error {
	va := p.VA()
	if lock, ok := m.wdLockOf.Get(va); ok {
		m.Mem.WriteU64(lock, 0) // INVALID
		m.rawAccess(lock, true, DepFree)
		m.rawAccess(lock, true, DepFree) // add_free_list(id.lock)
		m.emit(isa.Inst{Op: isa.OpWDClrID, Dest: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone})
		m.wdFreeLocks = append(m.wdFreeLocks, lock)
		// The stale pointer keeps referencing this lock; the zeroed key is
		// what makes a later dereference fail the check micro-op.
	}
	m.Call()
	err := m.Heap.Free(va)
	m.emitAllocatorWork()
	m.Ret()
	return err
}

// --- checked accesses through program pointers ---

// Access performs a load or store through p at the given offset. Under
// AOS the access is bounds-checked; a detected violation is recorded with
// the OS and returned as a kernel.Exception (the access itself is
// suppressed — precise exceptions). Callers model a report-and-resume
// handler by ignoring the returned error.
func (m *Machine) Access(p Ptr, off uint64, store bool, opts AccessOpts) error {
	addr := composeOffset(p.Raw, off)
	va := pa.VA(addr)

	// Watchdog: check micro-op before the access (lock load + compare),
	// and shadow-memory identifier moves for pointer loads/stores
	// (Fig 5a cases 3-4: "ld R1.id <- ShadowMem[R2].id").
	if m.Scheme.HasWatchdogChecks() {
		if err := m.watchdogCheck(p, va); err != nil {
			return err
		}
		if opts.Pointer {
			// Shadow metadata is packed at 24 bytes per 64-byte data line,
			// so shadow locality mirrors data locality.
			m.shadowAccess(kernel.ShadowBase+((va-kernel.HeapBase)%kernel.HeapLimit>>6)*24, store, opts.Dep)
		}
	}

	in := isa.Inst{Size: 8, Addr: addr, Src1: m.srcFor(opts.Dep), Src2: isa.RegNone}
	if store {
		in.Op = isa.OpStore
		in.Dest = isa.RegNone
		in.Src2 = m.lastALU
	} else {
		in.Op = isa.OpLoad
		in.Dest = m.allocReg()
	}

	var excErr error
	if m.Scheme.UsesMemoryTagging() {
		// The tag compare rides on the access itself; a mismatch is a
		// precise fault on the load/store, recorded like a bounds fault.
		excErr = m.mteCheckAccess(p, addr, va)
	}
	if m.Scheme.SignsDataPointers() && pa.IsSigned(addr) {
		table := m.OS.Table()
		in.Signed = true
		in.PAC = pa.PAC(addr)
		in.AHC = pa.AHC(addr)
		in.Assoc = uint8(table.Assoc())
		in.RowAddr = table.RowAddr(in.PAC)
		if way, found := table.Lookup(in.PAC, va); found {
			in.HomeWay = int8(way)
		} else {
			in.HomeWay = -1
			kind := "out-of-bounds access"
			if !m.Heap.IsLive(p.VA()) {
				kind = "use-after-free (dangling pointer)"
			}
			excErr = m.OS.RaiseException(kernel.ExcBoundsCheck, addr, kind)
		}
	}

	// PA data-pointer integrity: sign pointers before storing them.
	if store && opts.Pointer && m.Scheme.HasOnLoadAuth() && !m.Scheme.UsesAutm() {
		d := m.allocReg()
		m.emit(isa.Inst{Op: isa.OpPacia, Dest: d, Src1: m.lastALU, Src2: isa.RegNone})
		in.Src2 = d
	}

	m.emit(in)
	if !store {
		m.lastLoad = in.Dest
		// On-load authentication of loaded pointers (Fig 13).
		if opts.Pointer && m.Scheme.HasOnLoadAuth() {
			op := isa.OpAutia
			if m.Scheme.UsesAutm() {
				op = isa.OpAutm
			}
			d := m.allocReg()
			m.emit(isa.Inst{Op: op, Dest: d, Src1: in.Dest, Src2: isa.RegNone})
		}
	}

	return excErr
}

// Load is Access(store=false).
func (m *Machine) Load(p Ptr, off uint64, opts AccessOpts) error {
	return m.Access(p, off, false, opts)
}

// Store is Access(store=true).
func (m *Machine) Store(p Ptr, off uint64, opts AccessOpts) error {
	return m.Access(p, off, true, opts)
}

// LoadU64 performs a checked load that also reads the simulated memory,
// for example programs that care about data values. On a detected
// violation the read is suppressed (precise exceptions) and zero returned.
func (m *Machine) LoadU64(p Ptr, off uint64) (uint64, error) {
	if err := m.Access(p, off, false, AccessOpts{}); err != nil {
		return 0, err
	}
	return m.Mem.ReadU64(pa.VA(p.Raw) + off), nil
}

// StoreU64 performs a checked store with a real data value; suppressed on
// detected violations.
func (m *Machine) StoreU64(p Ptr, off uint64, v uint64) error {
	if err := m.Access(p, off, true, AccessOpts{}); err != nil {
		return err
	}
	m.Mem.WriteU64(pa.VA(p.Raw)+off, v)
	return nil
}

// watchdogCheck is the check micro-op: load the pointer's lock location
// and compare identifiers (UAF + bounds detection for the baseline).
func (m *Machine) watchdogCheck(p Ptr, va uint64) error {
	base := p.VA()
	lock, tracked := m.wdLockOf.Get(base)
	in := isa.Inst{Op: isa.OpWDCheck, Dest: isa.RegNone, Src1: m.lastALU, Src2: isa.RegNone}
	if tracked {
		in.Addr = lock
		in.Size = 8
	}
	m.emit(in)
	if !tracked {
		return nil
	}
	// Compare the pointer's travelling identifier against the lock's
	// current value: a freed (zeroed) or re-assigned lock fails the check.
	key := m.Mem.ReadU64(lock)
	if key == 0 || key != p.WDKey {
		return m.OS.RaiseException(kernel.ExcBoundsCheck, p.Raw, "watchdog: stale identifier (UAF)")
	}
	if va < base || va >= base+sizeOrMin(p.Size) {
		return m.OS.RaiseException(kernel.ExcBoundsCheck, p.Raw, "watchdog: bounds violation")
	}
	return nil
}

// PointerArith models pointer arithmetic: the result inherits the PAC/AHC
// (for free, under AOS — the paper's key propagation insight), while the
// Watchdog baseline must emit metadata-propagation micro-ops (Fig 5a
// cases 5-6).
func (m *Machine) PointerArith(p Ptr, delta int64) Ptr {
	d := m.allocReg()
	m.emit(isa.Inst{Op: isa.OpALU, Dest: d, Src1: m.lastALU, Src2: isa.RegNone})
	if m.Scheme.HasWatchdogChecks() {
		m.emit(isa.Inst{Op: isa.OpWDMeta, Dest: m.allocReg(), Src1: d, Src2: isa.RegNone})
	}
	m.lastALU = d
	return Ptr{Raw: composeOffset(p.Raw, uint64(delta)), Size: p.Size}
}

// AutM authenticates a data pointer with autm and raises ExcPAAuth on a
// zero AHC (AHC-forging defense, §VII-C).
func (m *Machine) AutM(p Ptr) error {
	d := m.allocReg()
	m.emit(isa.Inst{Op: isa.OpAutm, Dest: d, Src1: m.lastALU, Src2: isa.RegNone})
	if _, err := pa.AutM(p.Raw); err != nil {
		return m.OS.RaiseException(kernel.ExcPAAuth, p.Raw, "autm: zero AHC")
	}
	return nil
}

// composeOffset adds a byte offset to the address bits of a (possibly
// signed) pointer, leaving PAC and AHC untouched — exactly what AArch64
// pointer arithmetic does to the upper bits for small offsets.
func composeOffset(raw, off uint64) uint64 {
	return (raw &^ pa.VAMask) | ((raw + off) & pa.VAMask)
}

// Strip returns the pointer with PAC and AHC removed (xpacm), emitting the
// instruction.
func (m *Machine) Strip(p Ptr) Ptr {
	d := m.allocReg()
	m.emit(isa.Inst{Op: isa.OpXpacm, Dest: d, Src1: m.lastALU, Src2: isa.RegNone})
	return Ptr{Raw: p.VA(), Size: p.Size}
}

// String summarizes machine state.
func (m *Machine) String() string {
	return fmt.Sprintf("machine{%s, %d insts, heap live %d, HBT %d-way}",
		m.Scheme, m.counts.Total, m.Heap.Stats().Live, m.OS.Table().Assoc())
}
