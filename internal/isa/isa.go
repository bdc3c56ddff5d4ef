// Package isa defines the dynamic-instruction representation shared by the
// functional machine (internal/core) and the timing simulator (internal/cpu).
//
// The reproduction is trace-driven: the functional phase executes a workload
// against the simulated heap, pointer-authentication unit and hashed bounds
// table, and emits a stream of dynamic instructions annotated with
// everything the timing model needs (effective addresses, signedness, the
// HBT way holding the pointer's bounds, branch outcomes, dependency
// registers). The timing phase replays that stream through an out-of-order
// core model.
package isa

import "fmt"

// Op is a dynamic instruction class. The set mirrors the AArch64 subset that
// matters to the AOS evaluation plus the new instructions AOS introduces
// (§IV-A) and the extra operations of the Watchdog and PA baselines.
type Op uint8

const (
	// OpNop is an instruction with no effect (used for padding).
	OpNop Op = iota
	// OpALU is a 1-cycle integer operation.
	OpALU
	// OpMul is a 3-cycle integer multiply (also covers long-latency int ops).
	OpMul
	// OpFP is a 4-cycle floating-point operation.
	OpFP
	// OpLoad is a memory load.
	OpLoad
	// OpStore is a memory store.
	OpStore
	// OpBranch is a conditional branch with a recorded outcome.
	OpBranch
	// OpCall is a function call (unconditional control transfer).
	OpCall
	// OpRet is a function return.
	OpRet

	// OpPacma is the AOS pacma/pacmb instruction: computes a PAC and a 2-bit
	// AHC and inserts both into a data pointer (4-cycle crypto latency).
	OpPacma
	// OpXpacm strips PAC and AHC from a pointer (1 cycle).
	OpXpacm
	// OpAutm authenticates that a pointer carries a nonzero AHC (1 cycle).
	OpAutm
	// OpPacia/OpAutia are Arm PA sign/authenticate used by the PA baseline
	// for return addresses and code/data pointer integrity (4 cycles).
	OpPacia
	// OpAutia authenticates a PA-signed pointer (4 cycles).
	OpAutia
	// OpBndstr stores compressed bounds metadata into the HBT (handled by
	// the MCU; the store itself issues after commit).
	OpBndstr
	// OpBndclr clears the bounds metadata associated with a pointer.
	OpBndclr

	// OpWDCheck is Watchdog's check micro-op inserted before every memory
	// access: it loads the pointer's lock location and compares identifiers.
	OpWDCheck
	// OpWDMeta is a Watchdog metadata-propagation instruction inserted on
	// pointer arithmetic (Fig 5a, cases 5 and 6).
	OpWDMeta
	// OpWDSetID / OpWDClrID are Watchdog's allocation-time identifier
	// assignment and deallocation-time invalidation operations.
	OpWDSetID
	// OpWDClrID invalidates a Watchdog identifier on free.
	OpWDClrID

	// OpIRG is MTE's insert-random-tag instruction: picks an allocation
	// tag and inserts it into the pointer's tag bits (1 cycle).
	OpIRG
	// OpSTG is MTE's store-allocation-tag instruction: writes one tag
	// granule's memory tag. It drains through the store path after commit
	// like a store, but targets the tag shadow, not program data.
	OpSTG

	opCount
)

// NumOps is the number of defined instruction classes; op bytes at or above
// it are outside the ISA (corrupt traces).
const NumOps = int(opCount)

var opNames = [opCount]string{
	"nop", "alu", "mul", "fp", "load", "store", "branch", "call", "ret",
	"pacma", "xpacm", "autm", "pacia", "autia", "bndstr", "bndclr",
	"wdcheck", "wdmeta", "wdsetid", "wdclrid",
	"irg", "stg",
}

// String returns the mnemonic for the op.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsMem reports whether the op accesses program memory through the LSU.
func (o Op) IsMem() bool { return o == OpLoad || o == OpStore || o == OpWDCheck }

// IsBoundsOp reports whether the op is an HBT-management instruction that is
// issued directly to the MCU.
func (o Op) IsBoundsOp() bool { return o == OpBndstr || o == OpBndclr }

// IsBranch reports whether the op is a control-flow instruction.
func (o Op) IsBranch() bool { return o == OpBranch || o == OpCall || o == OpRet }

// IsPA reports whether the op executes on the PA crypto unit.
func (o Op) IsPA() bool {
	return o == OpPacma || o == OpXpacm || o == OpAutm || o == OpPacia || o == OpAutia
}

// NumRegs is the number of logical registers used for dependency modeling.
const NumRegs = 32

// RegNone marks an unused register slot.
const RegNone uint8 = 0xFF

// Inst is one dynamic instruction. It is a plain value type; slices of Inst
// stream from the functional machine to the timing core.
type Inst struct {
	// Op is the instruction class.
	Op Op
	// PC is the synthetic program counter (drives I-cache behaviour).
	PC uint64
	// Dest is the destination register, or RegNone.
	Dest uint8
	// Src1, Src2 are source registers, or RegNone.
	Src1, Src2 uint8

	// Addr is the effective virtual address for memory and bounds ops. For
	// loads/stores it may carry PAC/AHC bits in its upper bits.
	Addr uint64
	// Size is the access size in bytes (or the chunk size for OpPacma /
	// OpBndstr).
	Size uint32

	// Signed marks a memory access through an AOS-signed pointer; the MCU
	// must bounds-check it before it may retire.
	Signed bool
	// PAC is the pointer authentication code embedded in Addr (valid when
	// Signed, and for bounds ops).
	PAC uint16
	// AHC is the 2-bit address hashing code (valid when Signed).
	AHC uint8

	// HomeWay is the HBT way where this access's bounds currently reside
	// (resolved by the functional phase). -1 means no valid bounds exist,
	// i.e. the access faults after searching every way.
	HomeWay int8
	// Assoc is the HBT associativity at the time of the access (the number
	// of ways a failing search must visit).
	Assoc uint8
	// RowAddr is the virtual address of way 0 of this PAC's HBT row.
	RowAddr uint64

	// BranchID identifies the static branch site; Taken is its outcome.
	BranchID uint32
	// Taken is the branch outcome (valid when Op is a branch).
	Taken bool

	// Resize marks a bndstr that triggered an HBT resize (insertion
	// failure); the timing model charges the migration.
	Resize bool
}

// String renders a compact human-readable form, mainly for tests and debug.
func (in Inst) String() string {
	switch {
	case in.Op.IsMem() || in.Op.IsBoundsOp():
		s := fmt.Sprintf("%s 0x%x", in.Op, in.Addr)
		if in.Signed {
			s += fmt.Sprintf(" [signed pac=%04x ahc=%d way=%d]", in.PAC, in.AHC, in.HomeWay)
		}
		return s
	case in.Op == OpBranch:
		return fmt.Sprintf("%s b%d taken=%v", in.Op, in.BranchID, in.Taken)
	default:
		return in.Op.String()
	}
}

// Stream is a pull-based source of dynamic instructions. Next returns false
// when the stream is exhausted.
type Stream interface {
	Next(*Inst) bool
}

// Sink consumes dynamic instructions as the functional machine emits them.
// The timing core is a Sink, as are statistics collectors; this keeps the
// two simulation phases streaming without materializing traces.
type Sink interface {
	Emit(in *Inst)
}

// BatchSink is an optional Sink extension: a consumer that can accept a
// whole batch of instructions in one call, amortizing interface dispatch
// and improving locality on the simulation hot path. The batch slice is
// only valid for the duration of the call — the producer reuses its
// backing array — so implementations must not retain it (or pointers into
// it) after EmitBatch returns.
//
// EmitBatch must be observationally identical to calling Emit once per
// element in order; producers are free to pick either path.
type BatchSink interface {
	Sink
	EmitBatch(batch []Inst)
}

// EmitAll delivers a batch to any Sink: through EmitBatch when the sink
// supports batching, one Emit per instruction otherwise. It is the adapter
// that keeps one-at-a-time sinks usable behind the batched emission path.
func EmitAll(s Sink, batch []Inst) {
	if bs, ok := s.(BatchSink); ok {
		bs.EmitBatch(batch)
		return
	}
	for i := range batch {
		s.Emit(&batch[i])
	}
}

// MultiSink fans one stream out to several sinks.
type MultiSink []Sink

// Emit implements Sink.
func (ms MultiSink) Emit(in *Inst) {
	for _, s := range ms {
		s.Emit(in)
	}
}

// EmitBatch implements BatchSink: each sink receives the whole batch in
// turn (per-sink instruction order is identical to the scalar path; only
// the interleaving *across* sinks differs, which no sink may depend on).
func (ms MultiSink) EmitBatch(batch []Inst) {
	for _, s := range ms {
		EmitAll(s, batch)
	}
}

// CountSink adapts Counts to the Sink interface.
type CountSink struct{ Counts }

// Emit implements Sink.
func (c *CountSink) Emit(in *Inst) { c.Add(in) }

// EmitBatch implements BatchSink.
func (c *CountSink) EmitBatch(batch []Inst) {
	for i := range batch {
		c.Add(&batch[i])
	}
}

// NullSink discards everything (functional-only runs).
type NullSink struct{}

// Emit implements Sink.
func (NullSink) Emit(*Inst) {}

// EmitBatch implements BatchSink.
func (NullSink) EmitBatch([]Inst) {}

// Counts tallies dynamic instructions by class, with the signed/unsigned
// memory split the paper reports in Fig 16.
type Counts struct {
	Total         uint64
	ByOp          [opCount]uint64
	SignedLoads   uint64
	UnsignedLoads uint64
	SignedStores  uint64
	UnsignedStore uint64
}

// Add tallies one instruction.
func (c *Counts) Add(in *Inst) {
	c.Total++
	c.ByOp[in.Op]++
	switch in.Op {
	case OpLoad:
		if in.Signed {
			c.SignedLoads++
		} else {
			c.UnsignedLoads++
		}
	case OpStore:
		if in.Signed {
			c.SignedStores++
		} else {
			c.UnsignedStore++
		}
	default:
		// Non-memory classes carry no signedness split.
	}
}

// Of returns the count for one op class.
func (c *Counts) Of(op Op) uint64 { return c.ByOp[op] }

// PAOps returns the total count of PA-unit operations
// (pac*/aut*/xpac* in Fig 16).
func (c *Counts) PAOps() uint64 {
	return c.ByOp[OpPacma] + c.ByOp[OpXpacm] + c.ByOp[OpAutm] + c.ByOp[OpPacia] + c.ByOp[OpAutia]
}

// BoundsOps returns the bndstr+bndclr count (Fig 16).
func (c *Counts) BoundsOps() uint64 { return c.ByOp[OpBndstr] + c.ByOp[OpBndclr] }
