package core

import (
	"reflect"
	"testing"

	"aos/internal/instrument"
	"aos/internal/isa"
	"aos/internal/telemetry"
)

// recSink records every emitted instruction for byte-level comparison.
type recSink struct{ insts []isa.Inst }

func (r *recSink) Emit(in *isa.Inst)      { r.insts = append(r.insts, *in) }
func (r *recSink) EmitBatch(b []isa.Inst) { r.insts = append(r.insts, b...) }

// churn drives a deterministic instruction mix through every instrumented
// path: alloc/free, loads/stores (pointer and plain), arithmetic, branches,
// call/return, pointer arithmetic.
func churn(t *testing.T, m *Machine, live []Ptr, n, phase int) []Ptr {
	t.Helper()
	for i := 0; i < n; i++ {
		x := uint64(i+phase*100_000)*2654435761 + 7
		switch x % 7 {
		case 0:
			p, err := m.Malloc(16 + x%400)
			if err != nil {
				t.Fatalf("malloc: %v", err)
			}
			live = append(live, p)
		case 1:
			if len(live) > 8 {
				vi := int(x/11) % len(live)
				if err := m.Free(live[vi]); err != nil {
					t.Fatalf("free: %v", err)
				}
				live[vi] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		case 2:
			if len(live) > 0 {
				p := live[int(x/13)%len(live)]
				off := (x / 3) % maxU64(p.Size, 1) &^ 7
				if err := m.Load(p, off, AccessOpts{Pointer: x%5 == 0}); err != nil {
					t.Fatalf("load: %v", err)
				}
			}
		case 3:
			if len(live) > 0 {
				p := live[int(x/17)%len(live)]
				off := (x / 5) % maxU64(p.Size, 1) &^ 7
				if err := m.Store(p, off, AccessOpts{}); err != nil {
					t.Fatalf("store: %v", err)
				}
			}
		case 4:
			m.Branch(uint32(x%64), x%3 == 0)
			m.Compute(2, DepChain)
		case 5:
			m.Call()
			m.ComputeMul(1, DepFree)
			m.Ret()
		default:
			m.RawLoad(0x1000_0000+(x%4096)&^7, DepFree)
			m.ComputeFP(1, DepFree)
		}
	}
	return live
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// TestMachineSnapshotRestoreDeterminism: for every scheme, a machine
// restored from a checkpoint must produce a byte-identical instruction
// trace, counts, and exception log to the original running straight
// through. One machine is restored three times: fresh, then twice in
// place over the buffers its continuation grew, which must neither keep
// their old contents nor write through to the checkpoint.
func TestMachineSnapshotRestoreDeterminism(t *testing.T) {
	for _, s := range instrument.AllSchemes() {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			rA := &recSink{}
			a, err := New(Config{Scheme: s})
			if err != nil {
				t.Fatal(err)
			}
			a.SetSink(rA)
			a.SetBatch(64)
			live := churn(t, a, nil, 3000, 0)
			snap := a.Snapshot() // flushes
			mark := len(rA.insts)
			liveAtSnap := append([]Ptr(nil), live...)

			churn(t, a, live, 3000, 1)
			a.Flush()
			wantTail := rA.insts[mark:]
			wantCounts := a.Counts()
			wantExcs := a.Exceptions()

			b, err := New(Config{Scheme: s})
			if err != nil {
				t.Fatal(err)
			}
			b.SetBatch(64)
			for trial := 0; trial < 3; trial++ {
				rB := &recSink{}
				b.SetSink(rB)
				if err := b.Restore(snap); err != nil {
					t.Fatal(err)
				}
				churn(t, b, append([]Ptr(nil), liveAtSnap...), 3000, 1)
				b.Flush()
				if !reflect.DeepEqual(rB.insts, wantTail) {
					t.Fatalf("trial %d: restored trace diverged (%d vs %d insts)", trial, len(rB.insts), len(wantTail))
				}
				if b.Counts() != wantCounts {
					t.Fatalf("trial %d: counts diverged", trial)
				}
				if !reflect.DeepEqual(b.Exceptions(), wantExcs) {
					t.Fatalf("trial %d: exceptions diverged", trial)
				}
			}
		})
	}
}

// TestMachineRestoreSchemeMismatch: restoring across schemes must fail
// loudly rather than corrupt state.
func TestMachineRestoreSchemeMismatch(t *testing.T) {
	a, _ := New(Config{Scheme: instrument.AOS})
	b, _ := New(Config{Scheme: instrument.MTE})
	if err := b.Restore(a.Snapshot()); err == nil {
		t.Fatal("expected scheme-mismatch error")
	}
}

// TestMachineSnapshotComplete is the reflection guard, in the style of
// workload.Profile.Clone's completeness test. Every Machine field is
// classified as checkpointed or operational, so a new field cannot
// silently escape checkpoints, and every machineState field an assignment
// would share is on the deep-copy list: Snapshot clones it and Restore
// copies it into the machine's own buffer.
func TestMachineSnapshotComplete(t *testing.T) {
	checkpointed := map[string]bool{
		// Mem, Heap, OS and mteTags snapshot themselves into MachineState.
		"machineState": true, "Mem": true, "Heap": true, "OS": true, "mteTags": true,
	}
	operational := map[string]bool{
		// PAUnit is stateless (fixed QARMA keys); sink/batch/tel are the
		// runtime wiring Restore deliberately preserves.
		"PAUnit": true, "sink": true, "batch": true, "tel": true,
	}
	typ := reflect.TypeOf(Machine{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if checkpointed[name] == operational[name] {
			t.Errorf("core.Machine field %q is not classified as checkpointed or operational; update Snapshot/Restore and this test", name)
		}
	}
	deepCopied := map[string]bool{"wdFreeLocks": true, "wdLockOf": true}
	st := reflect.TypeOf(machineState{})
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		if shares := sharesStorage(f.Type); shares != deepCopied[f.Name] {
			t.Errorf("core.machineState field %q: shares storage %v, on the deep-copy list %v; update snapshot.go and this test",
				f.Name, shares, deepCopied[f.Name])
		}
	}
}

// sharesStorage reports whether assigning a value of type t leaves the
// copy sharing storage with the original.
func sharesStorage(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Slice, reflect.Map, reflect.Pointer, reflect.Interface, reflect.Func, reflect.Chan:
		return true
	case reflect.Array:
		return sharesStorage(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if sharesStorage(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// TestRestoreRefreshesTelemetry: a restore moves the machine's bounds table
// and heap to the checkpoint's, so the attached flight recorder must re-read
// them. On a machine that ran past the checkpoint the gauges drop back to
// its levels; on a fresh machine the counters also catch up to its totals
// (a counter never runs backwards, so only there do they move).
func TestRestoreRefreshesTelemetry(t *testing.T) {
	state := func(m *Machine) [4]uint64 {
		hs := m.Heap.Stats()
		return [4]uint64{uint64(m.OS.Table().Live()), hs.Live, hs.BytesIn, m.hbtInserts}
	}
	probes := func(m *Machine) [4]uint64 {
		return [4]uint64{m.tel.hbtLive.Load(), m.tel.heapLive.Load(), m.tel.heapBytes.Load(), m.tel.hbtInserts.Load()}
	}
	attached := func() *Machine {
		m, err := New(Config{Scheme: instrument.AOS})
		if err != nil {
			t.Fatal(err)
		}
		m.SetSink(&recSink{})
		m.AttachTelemetry(telemetry.NewTimeline(telemetry.NewRegistry(), 64))
		return m
	}

	m := attached()
	live := churn(t, m, nil, 3000, 0)
	snap := m.Snapshot()
	want := state(m)
	churn(t, m, live, 3000, 1)
	if after := state(m); after[0] == want[0] || after[1] == want[1] || after[2] == want[2] || after[3] == want[3] {
		t.Fatalf("test is vacuous: the continuation left %v at the checkpoint's %v", after, want)
	}
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := probes(m); got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("restore over a continuation: gauges read %v, the checkpoint holds %v", got[:3], want[:3])
	}

	fresh := attached()
	if err := fresh.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := probes(fresh); got != want {
		t.Errorf("restore into a fresh machine: probes read %v, the checkpoint holds %v", got, want)
	}
}
