package core

import (
	"errors"
	"math"
	"testing"

	"aos/internal/heap"
	"aos/internal/instrument"
	"aos/internal/isa"
	"aos/internal/kernel"
	"aos/internal/pa"
)

func newMachine(t testing.TB, s instrument.Scheme) *Machine {
	t.Helper()
	m, err := New(Config{Scheme: s})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// recorder captures the emitted stream for instrumentation checks.
type recorder struct{ insts []isa.Inst }

func (r *recorder) Emit(in *isa.Inst) { r.insts = append(r.insts, *in) }

func (r *recorder) ops() []isa.Op {
	out := make([]isa.Op, len(r.insts))
	for i := range r.insts {
		out[i] = r.insts[i].Op
	}
	return out
}

func countOp(ops []isa.Op, op isa.Op) int {
	n := 0
	for _, o := range ops {
		if o == op {
			n++
		}
	}
	return n
}

// --- instrumentation shapes (Fig 5 / Fig 7) ---

func TestAOSMallocInstrumentation(t *testing.T) {
	m := newMachine(t, instrument.AOS)
	var r recorder
	m.SetSink(&r)
	p, err := m.Malloc(100)
	if err != nil {
		t.Fatal(err)
	}
	ops := r.ops()
	if countOp(ops, isa.OpPacma) != 1 || countOp(ops, isa.OpBndstr) != 1 {
		t.Errorf("AOS malloc must add exactly one pacma and one bndstr; got %d/%d",
			countOp(ops, isa.OpPacma), countOp(ops, isa.OpBndstr))
	}
	if !p.Signed() {
		t.Error("AOS malloc returned an unsigned pointer")
	}
	if pa.AHC(p.Raw) == 0 {
		t.Error("signed pointer has zero AHC")
	}
	// pacma must precede bndstr.
	pacIdx, bndIdx := -1, -1
	for i, o := range ops {
		if o == isa.OpPacma && pacIdx < 0 {
			pacIdx = i
		}
		if o == isa.OpBndstr {
			bndIdx = i
		}
	}
	if pacIdx > bndIdx {
		t.Error("bndstr emitted before pacma")
	}
}

func TestAOSFreeInstrumentation(t *testing.T) {
	m := newMachine(t, instrument.AOS)
	p, err := m.Malloc(100)
	if err != nil {
		t.Fatal(err)
	}
	var r recorder
	m.SetSink(&r)
	if err := m.Free(p); err != nil {
		t.Fatal(err)
	}
	ops := r.ops()
	// Fig 7b: bndclr, xpacm, free body, pacma.
	if countOp(ops, isa.OpBndclr) != 1 || countOp(ops, isa.OpXpacm) != 1 || countOp(ops, isa.OpPacma) != 1 {
		t.Errorf("AOS free shape wrong: bndclr=%d xpacm=%d pacma=%d",
			countOp(ops, isa.OpBndclr), countOp(ops, isa.OpXpacm), countOp(ops, isa.OpPacma))
	}
	if ops[0] != isa.OpBndclr {
		t.Errorf("first op of AOS free = %v, want bndclr", ops[0])
	}
	if ops[len(ops)-1] != isa.OpPacma {
		t.Errorf("last op of AOS free = %v, want pacma (re-sign)", ops[len(ops)-1])
	}
}

func TestBaselineHasNoInstrumentation(t *testing.T) {
	m := newMachine(t, instrument.Baseline)
	var r recorder
	m.SetSink(&r)
	p, _ := m.Malloc(64)
	if err := m.Load(p, 0, AccessOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(p); err != nil {
		t.Fatal(err)
	}
	ops := r.ops()
	for _, op := range []isa.Op{isa.OpPacma, isa.OpBndstr, isa.OpBndclr, isa.OpXpacm, isa.OpWDCheck} {
		if countOp(ops, op) != 0 {
			t.Errorf("baseline emitted %v", op)
		}
	}
	if p.Signed() {
		t.Error("baseline pointer is signed")
	}
}

func TestWatchdogInstrumentation(t *testing.T) {
	m := newMachine(t, instrument.Watchdog)
	var r recorder
	m.SetSink(&r)
	p, _ := m.Malloc(64)
	if err := m.Load(p, 8, AccessOpts{}); err != nil {
		t.Fatal(err)
	}
	ops := r.ops()
	if countOp(ops, isa.OpWDSetID) != 1 {
		t.Error("watchdog malloc missing setid")
	}
	if countOp(ops, isa.OpWDCheck) == 0 {
		t.Error("watchdog access missing check micro-op")
	}
	// Pointer arithmetic must propagate metadata.
	r.insts = nil
	m.PointerArith(p, 8)
	if countOp(r.ops(), isa.OpWDMeta) != 1 {
		t.Error("watchdog pointer arithmetic missing metadata propagation")
	}
}

func TestPACallInstrumentation(t *testing.T) {
	m := newMachine(t, instrument.PA)
	var r recorder
	m.SetSink(&r)
	m.Call()
	m.Ret()
	ops := r.ops()
	if countOp(ops, isa.OpPacia) != 1 || countOp(ops, isa.OpAutia) != 1 {
		t.Errorf("PA call/ret: pacia=%d autia=%d, want 1/1",
			countOp(ops, isa.OpPacia), countOp(ops, isa.OpAutia))
	}
	// Baseline call/ret must not sign.
	mb := newMachine(t, instrument.Baseline)
	var rb recorder
	mb.SetSink(&rb)
	mb.Call()
	mb.Ret()
	if countOp(rb.ops(), isa.OpPacia) != 0 {
		t.Error("baseline call signs the return address")
	}
}

func TestPAOnLoadAuthentication(t *testing.T) {
	// PA: loaded pointers authenticated with autia; PA+AOS with autm.
	m := newMachine(t, instrument.PA)
	p, _ := m.Malloc(64)
	var r recorder
	m.SetSink(&r)
	if err := m.Load(p, 0, AccessOpts{Pointer: true}); err != nil {
		t.Fatal(err)
	}
	if countOp(r.ops(), isa.OpAutia) != 1 {
		t.Error("PA pointer load missing autia")
	}

	m2 := newMachine(t, instrument.PAAOS)
	p2, _ := m2.Malloc(64)
	var r2 recorder
	m2.SetSink(&r2)
	if err := m2.Load(p2, 0, AccessOpts{Pointer: true}); err != nil {
		t.Fatal(err)
	}
	if countOp(r2.ops(), isa.OpAutm) != 1 {
		t.Error("PA+AOS pointer load missing autm")
	}
	if countOp(r2.ops(), isa.OpAutia) != 0 {
		t.Error("PA+AOS re-authenticates AOS-signed pointers with autia (Fig 13 says autm)")
	}
}

// --- memory-safety detection (Fig 12) ---

func TestDetectHeapOOBReadWrite(t *testing.T) {
	m := newMachine(t, instrument.AOS)
	const n = 10
	p, err := m.Malloc(8 * n)
	if err != nil {
		t.Fatal(err)
	}
	// In-bounds accesses succeed.
	for i := uint64(0); i < n; i++ {
		if err := m.Load(p, i*8, AccessOpts{}); err != nil {
			t.Fatalf("in-bounds load at %d failed: %v", i, err)
		}
	}
	// ptr[N+1]: bounds-checking failure on both read and write.
	if err := m.Load(p, (n+1)*8, AccessOpts{}); err == nil {
		t.Error("OOB read undetected")
	}
	if err := m.Store(p, (n+1)*8, AccessOpts{}); err == nil {
		t.Error("OOB write undetected")
	}
	excs := m.Exceptions()
	if len(excs) != 2 {
		t.Fatalf("recorded %d exceptions, want 2", len(excs))
	}
	for _, e := range excs {
		if e.Kind != kernel.ExcBoundsCheck {
			t.Errorf("exception kind = %v, want bounds-check", e.Kind)
		}
	}
}

func TestDetectUseAfterFree(t *testing.T) {
	m := newMachine(t, instrument.AOS)
	p, _ := m.Malloc(64)
	if err := m.Free(p); err != nil {
		t.Fatal(err)
	}
	// The freed pointer stays signed ("locked"); its bounds are gone.
	if err := m.Load(p, 0, AccessOpts{}); err == nil {
		t.Error("use-after-free undetected")
	}
	excs := m.Exceptions()
	if len(excs) != 1 || excs[0].Kind != kernel.ExcBoundsCheck {
		t.Fatalf("exceptions = %+v", excs)
	}
}

func TestDetectDoubleFree(t *testing.T) {
	m := newMachine(t, instrument.AOS)
	p, _ := m.Malloc(64)
	if err := m.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(p); err == nil {
		t.Fatal("double free undetected")
	}
	excs := m.Exceptions()
	if len(excs) != 1 || excs[0].Kind != kernel.ExcBoundsClear {
		t.Fatalf("double free exceptions = %+v", excs)
	}
}

func TestDetectInvalidFree(t *testing.T) {
	// free() of a crafted, never-signed pointer: bndclr fails (the House
	// of Spirit defense — only valid signed pointers can be freed).
	m := newMachine(t, instrument.AOS)
	crafted := Ptr{Raw: 0x1000_0010} // unsigned global address
	if err := m.Free(crafted); err == nil {
		t.Fatal("free of a crafted unsigned pointer undetected")
	}
	excs := m.Exceptions()
	if len(excs) != 1 || excs[0].Kind != kernel.ExcBoundsClear {
		t.Fatalf("invalid free exceptions = %+v", excs)
	}
	// Crucially the allocator was never reached: the next malloc cannot
	// return the crafted address.
	p, _ := m.Malloc(0x30)
	if p.VA() == crafted.VA() {
		t.Error("crafted chunk entered the allocator despite AOS")
	}
}

func TestViolationErrorsAreKernelExceptions(t *testing.T) {
	m := newMachine(t, instrument.AOS)
	p, _ := m.Malloc(16)
	err := m.Load(p, 1024, AccessOpts{})
	var exc kernel.Exception
	if !errors.As(err, &exc) {
		t.Fatalf("violation error = %v (%T), want kernel.Exception", err, err)
	}
	if exc.Kind != kernel.ExcBoundsCheck {
		t.Errorf("kind = %v", exc.Kind)
	}
}

func TestPreciseExceptionSuppressesData(t *testing.T) {
	m := newMachine(t, instrument.AOS)
	secret, _ := m.Malloc(64)
	if err := m.StoreU64(secret, 0, 0x5EC12E7); err != nil {
		t.Fatal(err)
	}
	small, _ := m.Malloc(16)
	// Try to read the secret via an OOB offset from the small chunk: the
	// load must be suppressed, returning zero.
	off := secret.VA() - small.VA()
	v, err := m.LoadU64(small, off)
	if err == nil {
		t.Fatal("OOB read undetected")
	}
	if v != 0 {
		t.Errorf("suppressed load leaked %#x", v)
	}
	// An OOB write must not corrupt memory.
	if err := m.StoreU64(small, off, 0xBAD); err == nil {
		t.Fatal("OOB write undetected")
	}
	if got, _ := m.LoadU64(secret, 0); got != 0x5EC12E7 {
		t.Errorf("OOB write corrupted memory: %#x", got)
	}
}

func TestDanglingPointerAcrossReallocation(t *testing.T) {
	// After free+realloc of the same memory by a new owner, the stale
	// pointer must still fault: its PAC maps to bounds cleared at free
	// time (the new owner's bounds are under its own base -> same PAC only
	// if same base; then bounds DO match — the paper's locking relies on
	// the chunk base: same base + same PAC means the dangling pointer
	// aliases the new allocation, which AOS accepts by design for exact
	// reuse; an attack needs a *different* chunk).
	m := newMachine(t, instrument.AOS)
	p, _ := m.Malloc(1 << 13) // too big for tcache/fastbin reuse games
	if err := m.Free(p); err != nil {
		t.Fatal(err)
	}
	q, _ := m.Malloc(1 << 12) // splits the freed chunk: same base, new bounds
	_ = q
	// Access beyond the new allocation through the stale pointer: the old
	// bounds are gone, the new bounds stop at 4096.
	if err := m.Load(p, 1<<12+64, AccessOpts{}); err == nil {
		t.Error("stale pointer reached beyond the re-allocated object")
	}
}

func TestWatchdogDetectsUAF(t *testing.T) {
	m := newMachine(t, instrument.Watchdog)
	p, _ := m.Malloc(64)
	if err := m.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := m.Load(p, 0, AccessOpts{}); err == nil {
		t.Error("watchdog missed UAF")
	}
}

func TestWatchdogDetectsOOB(t *testing.T) {
	m := newMachine(t, instrument.Watchdog)
	p, _ := m.Malloc(64)
	if err := m.Load(p, 4096, AccessOpts{}); err == nil {
		t.Error("watchdog missed OOB")
	}
}

func TestAutMDetectsForgedAHC(t *testing.T) {
	m := newMachine(t, instrument.PAAOS)
	p, _ := m.Malloc(64)
	forged := Ptr{Raw: p.Raw &^ (uint64(3) << pa.AHCShift)} // zero the AHC
	if err := m.AutM(forged); err == nil {
		t.Error("autm accepted a zero-AHC pointer")
	}
	if err := m.AutM(p); err != nil {
		t.Errorf("autm rejected a valid pointer: %v", err)
	}
}

// --- mechanics ---

func TestHomeWayMatchesHBT(t *testing.T) {
	m := newMachine(t, instrument.AOS)
	var r recorder
	m.SetSink(&r)
	p, _ := m.Malloc(256)
	if err := m.Load(p, 128, AccessOpts{}); err != nil {
		t.Fatal(err)
	}
	var bndstr, load *isa.Inst
	for i := range r.insts {
		switch r.insts[i].Op {
		case isa.OpBndstr:
			bndstr = &r.insts[i]
		case isa.OpLoad:
			if r.insts[i].Signed {
				load = &r.insts[i]
			}
		}
	}
	if bndstr == nil || load == nil {
		t.Fatal("missing instrumented instructions")
	}
	if bndstr.HomeWay != load.HomeWay {
		t.Errorf("bndstr way %d != checked-load way %d", bndstr.HomeWay, load.HomeWay)
	}
	if load.RowAddr != m.Table().RowAddr(load.PAC) {
		t.Error("RowAddr stale")
	}
	if load.Assoc != uint8(m.Table().Assoc()) {
		t.Error("Assoc stale")
	}
}

func TestHBTResizeOnPACCollisionOverflow(t *testing.T) {
	// Force >8 simultaneously live chunks with the same PAC by brute
	// force: allocate until some PAC has 9 entries. With a 1-way table
	// that must trigger exactly the OS resize path.
	m := newMachine(t, instrument.AOS)
	before := m.Table().Assoc()
	var resized bool
	for i := 0; i < 400000 && !resized; i++ {
		if _, err := m.Malloc(32); err != nil {
			t.Fatal(err)
		}
		resized = len(m.OS.Resizes()) > 0
	}
	if !resized {
		t.Fatal("no resize after 400k live allocations into a 1-way table")
	}
	if m.Table().Assoc() != before*2 {
		t.Errorf("assoc after resize = %d, want %d", m.Table().Assoc(), before*2)
	}
	ev := m.OS.Resizes()[0]
	if ev.TrafficBytes == 0 {
		t.Error("resize recorded no migration traffic")
	}
	if len(m.Exceptions()) != 0 {
		t.Error("resize raised user-visible exceptions")
	}
}

func TestCountsTrackFig16Classes(t *testing.T) {
	m := newMachine(t, instrument.AOS)
	p, _ := m.Malloc(64)
	if err := m.Load(p, 0, AccessOpts{}); err != nil {
		t.Fatal(err)
	}
	m.RawLoad(kernel.GlobalsBase, DepFree)
	if err := m.Free(p); err != nil {
		t.Fatal(err)
	}
	c := m.Counts()
	if c.SignedLoads != 1 {
		t.Errorf("SignedLoads = %d, want 1", c.SignedLoads)
	}
	if c.UnsignedLoads == 0 {
		t.Error("allocator/stack loads not counted as unsigned")
	}
	if c.BoundsOps() != 2 { // bndstr + bndclr
		t.Errorf("BoundsOps = %d, want 2", c.BoundsOps())
	}
	if c.PAOps() < 3 { // pacma x2 + xpacm
		t.Errorf("PAOps = %d, want >= 3", c.PAOps())
	}
}

func TestPCsCycleThroughCodeFootprint(t *testing.T) {
	m, err := New(Config{Scheme: instrument.Baseline, CodeFootprint: 64})
	if err != nil {
		t.Fatal(err)
	}
	var r recorder
	m.SetSink(&r)
	m.Compute(40, DepFree)
	seen := map[uint64]bool{}
	for _, in := range r.insts {
		if in.PC < kernel.TextBase || in.PC >= kernel.TextBase+64 {
			t.Fatalf("PC %#x outside footprint", in.PC)
		}
		seen[in.PC] = true
	}
	if len(seen) != 16 {
		t.Errorf("distinct PCs = %d, want 16", len(seen))
	}
}

func TestPointerArithPreservesPAC(t *testing.T) {
	m := newMachine(t, instrument.AOS)
	p, _ := m.Malloc(256)
	q := m.PointerArith(p, 64)
	if pa.PAC(q.Raw) != pa.PAC(p.Raw) || pa.AHC(q.Raw) != pa.AHC(p.Raw) {
		t.Error("pointer arithmetic corrupted PAC/AHC")
	}
	if q.VA() != p.VA()+64 {
		t.Error("pointer arithmetic wrong address")
	}
	// The derived pointer checks against the same bounds.
	if err := m.Load(q, 0, AccessOpts{}); err != nil {
		t.Errorf("derived in-bounds pointer faulted: %v", err)
	}
	if err := m.Load(q, 256, AccessOpts{}); err == nil {
		t.Error("derived OOB pointer undetected")
	}
}

// TestCalloc: under every scheme Calloc returns zeroed bytes, even in a
// reused chunk, and a total past the allocator's size limit (wrapping
// the 64-bit product or not) fails with heap.ErrSizeTooLarge before
// anything is emitted or allocated.
func TestCalloc(t *testing.T) {
	for _, s := range instrument.AllSchemes() {
		m := newMachine(t, s)
		var r recorder
		m.SetSink(&r)
		dirty, err := m.Malloc(256)
		if err != nil {
			t.Fatal(err)
		}
		for off := uint64(0); off < 256; off += 8 {
			m.Mem.WriteU64(dirty.VA()+off, 0xDEADBEEF)
		}
		if err := m.Free(dirty); err != nil {
			t.Fatal(err)
		}
		p, err := m.Calloc(32, 8)
		if err != nil {
			t.Fatalf("%v: Calloc(32, 8): %v", s, err)
		}
		if p.Size != 256 {
			t.Errorf("%v: Calloc(32, 8) size = %d, want 256", s, p.Size)
		}
		for off := uint64(0); off < 256; off += 8 {
			if v := m.Mem.ReadU64(p.VA() + off); v != 0 {
				t.Fatalf("%v: Calloc memory not zeroed at +%d: %#x", s, off, v)
			}
		}

		stats, emitted, counts := m.Heap.Stats(), len(r.insts), m.Counts()
		for _, req := range [][2]uint64{{1 << 32, 1 << 32}, {math.MaxUint64, 2}, {1 << 16, 1 << 17}} {
			if _, err := m.Calloc(req[0], req[1]); !errors.Is(err, heap.ErrSizeTooLarge) {
				t.Errorf("%v: Calloc(%#x, %#x) err = %v, want ErrSizeTooLarge", s, req[0], req[1], err)
			}
		}
		if got := len(r.insts) - emitted; got != 0 {
			t.Errorf("%v: rejected Callocs emitted %d instructions", s, got)
		}
		if m.Heap.Stats() != stats || m.Counts() != counts {
			t.Errorf("%v: rejected Callocs changed the heap stats or counts", s)
		}
	}
}
