package cpu

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"aos/internal/core"
	"aos/internal/instrument"
	"aos/internal/isa"
	"aos/internal/telemetry"
	"aos/internal/workload"
)

type captureSink struct{ insts []isa.Inst }

func (r *captureSink) Emit(in *isa.Inst)      { r.insts = append(r.insts, *in) }
func (r *captureSink) EmitBatch(b []isa.Inst) { r.insts = append(r.insts, b...) }

// genStream produces a realistic instrumented stream through the functional
// machine: allocs, frees, signed loads/stores, branches, calls.
func genStream(t testing.TB, scheme instrument.Scheme, iters int) []isa.Inst {
	rec := &captureSink{}
	m, err := core.New(core.Config{Scheme: scheme})
	if err != nil {
		t.Fatal(err)
	}
	m.SetSink(rec)
	var live []core.Ptr
	for i := 0; i < iters; i++ {
		x := uint64(i)*2654435761 + 13
		switch x % 6 {
		case 0:
			p, err := m.Malloc(16 + x%512)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, p)
		case 1:
			if len(live) > 16 {
				vi := int(x/7) % len(live)
				if err := m.Free(live[vi]); err != nil {
					t.Fatal(err)
				}
				live[vi] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		case 2, 3:
			if len(live) > 0 {
				p := live[int(x/11)%len(live)]
				var off uint64
				if p.Size > 8 {
					off = ((x / 3) % (p.Size - 7)) &^ 7
				}
				store := x%2 == 0
				var err error
				if store {
					err = m.Store(p, off, core.AccessOpts{})
				} else {
					err = m.Load(p, off, core.AccessOpts{})
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		case 4:
			m.Branch(uint32(x%128), x%3 == 0)
			m.Compute(2, core.DepChain)
		default:
			m.Call()
			m.ComputeMul(1, core.DepFree)
			m.Ret()
		}
	}
	m.Flush()
	return rec.insts
}

// scatteredStream is 30,000 program instructions of gcc with its heap cut
// to 4,000 chunks, set-up left out: scattered enough to miss in the data
// and bounds caches, so the core's MSHR rings are written, yet quick to
// build.
func scatteredStream(t testing.TB) []isa.Inst {
	p, _ := workload.ByName("gcc")
	p = p.Clone()
	p.LiveChunks = 4000
	m, err := core.New(core.Config{Scheme: instrument.AOS})
	if err != nil {
		t.Fatal(err)
	}
	rec := &captureSink{}
	m.SetSink(rec)
	r, err := workload.NewRunner(p, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec.insts = rec.insts[:0]
	if err := r.RunTo(context.Background(), 30_000, 30_000); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	return rec.insts
}

// TestCoreSnapshotRestoreDeterminism: a restored timing core must start
// from exactly the original's state at the snapshot, however the original
// or an earlier restored core ran on, and produce exactly the same cycle
// count and statistics as the original running straight through the same
// stream. The snapshot is taken while the drain table holds stale entries
// and both ports hold reservations, and the second restore lands on the
// core the first one ran on, over drain entries and reservations the
// snapshot does not hold.
func TestCoreSnapshotRestoreDeterminism(t *testing.T) {
	for _, stream := range [][]isa.Inst{genStream(t, instrument.AOS, 40_000), scatteredStream(t)} {
		half := len(stream) / 2

		a := New(DefaultConfig())
		for i := range stream[:half] {
			a.Emit(&stream[i])
		}
		floor := a.fetchCycle + uint64(a.cfg.FrontendDepth)
		stale := 0
		for _, d := range a.bndstrDrain {
			if d != 0 && d <= floor {
				stale++
			}
		}
		reserved := func(s portSched) bool { return slices.ContainsFunc(s.ring, func(n uint8) bool { return n != 0 }) }
		if stale == 0 || !reserved(a.port) || !reserved(a.dPort) {
			t.Fatalf("test is vacuous: %d stale drain entries, bounds port reserved %v, data port %v",
				stale, reserved(a.port), reserved(a.dPort))
		}
		checkDerived(t, a, "before the snapshot")
		snap := a.Snapshot()
		for pac, d := range a.bndstrDrain {
			if d != 0 && d <= floor {
				t.Fatalf("Snapshot left the stale drain entry %d of PAC %d below floor %d", d, pac, floor)
			}
		}
		checkDerived(t, a, "after the snapshot")
		// fmt renders every field, buffer contents included: a copy of
		// the state that shares nothing with the core or its snapshot.
		atSnap := fmt.Sprint(a.coreState)
		for i := half; i < len(stream); i++ {
			a.Emit(&stream[i])
		}
		want := a.Finalize()
		wantLC := a.LastCommit()

		b := New(DefaultConfig())
		for trial := 0; trial < 2; trial++ {
			if err := b.Restore(snap); err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(b.coreState) != atSnap {
				t.Fatalf("trial %d: restored state differs from the original's at the snapshot", trial)
			}
			checkDerived(t, b, fmt.Sprintf("trial %d: after the restore", trial))
			for i := half; i < len(stream); i++ {
				b.Emit(&stream[i])
			}
			checkDerived(t, b, fmt.Sprintf("trial %d: after running on", trial))
			if got := b.Finalize(); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: restored result diverged:\n got %+v\nwant %+v", trial, got, want)
			}
			if b.LastCommit() != wantLC {
				t.Fatalf("trial %d: lastCommit %d, want %d", trial, b.LastCommit(), wantLC)
			}
		}
	}
}

// checkDerived fails unless the core's derived bookkeeping matches the
// state it summarizes: drainSet marks exactly the nonzero drain entries,
// and each port's ring is zero outside [base, top) and reserves top-1.
func checkDerived(t *testing.T, c *Core, when string) {
	t.Helper()
	for pac, d := range c.bndstrDrain {
		if marked := c.drainSet[pac>>6]>>(pac&63)&1 == 1; marked != (d != 0) {
			t.Fatalf("%s: PAC %d drains at %d but is marked %v", when, pac, d, marked)
		}
	}
	for _, s := range []*portSched{&c.port, &c.dPort} {
		for cyc := s.base; cyc < s.base+uint64(len(s.ring)); cyc++ {
			if cyc >= s.top && s.ring[cyc&s.mask] != 0 {
				t.Fatalf("%s: cycle %d reserved at or beyond top %d (base %d)", when, cyc, s.top, s.base)
			}
		}
		if s.top > s.base && s.ring[(s.top-1)&s.mask] == 0 {
			t.Fatalf("%s: top %d is past no reservation (base %d)", when, s.top, s.base)
		}
	}
}

// TestRestoreSkipsTelemetryWindow: a restore consumes no instructions and
// runs no cycles, so the attached flight recorder keeps the jump in the
// core's statistics and commit clock out of its windows: after a fresh
// core restores one that had consumed half a stream, each sample's
// cumulative cpu_insts_total and cpu_cycles_total count only what the
// core consumed and committed since the restore.
func TestRestoreSkipsTelemetryWindow(t *testing.T) {
	stream := genStream(t, instrument.AOS, 20_000)
	half := len(stream) / 2
	a := New(DefaultConfig())
	for i := range stream[:half] {
		a.Emit(&stream[i])
	}
	snap := a.Snapshot()

	b := New(DefaultConfig())
	tl := telemetry.NewTimeline(telemetry.NewRegistry(), 256)
	b.AttachTelemetry(tl)
	if err := b.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for i := half; i < len(stream); i++ {
		b.Emit(&stream[i])
	}
	if len(tl.Samples()) < 2 {
		t.Fatalf("test is vacuous: %d samples", len(tl.Samples()))
	}
	for i, row := range tl.Samples() {
		got, err := tl.Value(i, "cpu_insts_total")
		if err != nil {
			t.Fatal(err)
		}
		if want := row.Insts - a.Insts(); got != want {
			t.Fatalf("sample %d: cpu_insts_total %d, but the core consumed %d since the restore", i, got, want)
		}
		cycles, err := tl.Value(i, "cpu_cycles_total")
		if err != nil {
			t.Fatal(err)
		}
		if want := row.Cycle - a.LastCommit(); cycles != want {
			t.Fatalf("sample %d: cpu_cycles_total %d, but the core committed for %d cycles since the restore", i, cycles, want)
		}
	}
}

// TestCoreRestoreAllocatesNothing: Restore copies a snapshot into the
// target core's own rings, tables and caches, so resuming a sampled window
// allocates nothing.
func TestCoreRestoreAllocatesNothing(t *testing.T) {
	stream := genStream(t, instrument.AOS, 20_000)
	a := New(DefaultConfig())
	for i := range stream {
		a.Emit(&stream[i])
	}
	snap := a.Snapshot()
	b := New(DefaultConfig())
	allocs := testing.AllocsPerRun(20, func() {
		if err := b.Restore(snap); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Restore of a warmed AOS core: %v allocations per run, want 0", allocs)
	}
}

// TestCoreRestoreMismatch: geometry mismatches must fail loudly.
func TestCoreRestoreMismatch(t *testing.T) {
	a := New(DefaultConfig())
	cfg := DefaultConfig()
	cfg.ROBSize = 64
	b := New(cfg)
	if err := b.Restore(a.Snapshot()); err == nil {
		t.Fatal("expected queue-geometry mismatch error")
	}
	cfg = DefaultConfig()
	cfg.MCU.UseBWB = false
	d := New(cfg)
	if err := d.Restore(a.Snapshot()); err == nil {
		t.Fatal("expected BWB presence mismatch error")
	}
}

// TestFFWarmingMatchesDetailed: with forwarding disabled (the one
// timing-dependent effect in the reference stream), a fast-forwarding core
// must warm the caches, predictor, and BWB to a state bit-identical to a
// detailed core consuming the same stream.
func TestFFWarmingMatchesDetailed(t *testing.T) {
	for _, scheme := range []instrument.Scheme{instrument.AOS, instrument.Watchdog, instrument.MTE} {
		stream := genStream(t, scheme, 30_000)

		cfg := DefaultConfig()
		cfg.MCU.Forwarding = false
		det := New(cfg)
		ff := New(cfg)
		ff.SetMode(ModeFastForward)
		for i := range stream {
			det.Emit(&stream[i])
			ff.Emit(&stream[i])
		}
		if !reflect.DeepEqual(det.bp.Snapshot(), ff.bp.Snapshot()) {
			t.Fatalf("%v: predictor state diverged between detailed and FF warming", scheme)
		}
		if !reflect.DeepEqual(det.hier.Snapshot(), ff.hier.Snapshot()) {
			t.Fatalf("%v: cache hierarchy state diverged between detailed and FF warming", scheme)
		}
		if !reflect.DeepEqual(det.bwb.Snapshot(), ff.bwb.Snapshot()) {
			t.Fatalf("%v: BWB state diverged between detailed and FF warming", scheme)
		}
		if det.insts != ff.insts || det.checked != ff.checked ||
			det.boundsAccess != ff.boundsAccess || det.resizes != ff.resizes {
			t.Fatalf("%v: counters diverged: detailed {i %d c %d b %d r %d} vs FF {i %d c %d b %d r %d}",
				scheme, det.insts, det.checked, det.boundsAccess, det.resizes,
				ff.insts, ff.checked, ff.boundsAccess, ff.resizes)
		}
		if ff.lastCommit != 0 {
			t.Fatalf("%v: FF mode advanced the commit clock to %d", scheme, ff.lastCommit)
		}
	}
}

// TestFFThenDetailedResumes: after a fast-forward gap the core must accept
// detailed consumption again and keep producing monotonic commit cycles.
func TestFFThenDetailedResumes(t *testing.T) {
	stream := genStream(t, instrument.AOS, 30_000)
	third := len(stream) / 3

	c := New(DefaultConfig())
	for i := range stream[:third] {
		c.Emit(&stream[i])
	}
	lc := c.LastCommit()
	c.SetMode(ModeFastForward)
	for i := third; i < 2*third; i++ {
		c.Emit(&stream[i])
	}
	if c.LastCommit() != lc {
		t.Fatalf("FF gap advanced commit clock: %d -> %d", lc, c.LastCommit())
	}
	c.SetMode(ModeDetailed)
	for i := 2 * third; i < len(stream); i++ {
		c.Emit(&stream[i])
	}
	if c.LastCommit() <= lc {
		t.Fatalf("detailed resume did not advance commit clock past %d", lc)
	}
	if c.Insts() != uint64(len(stream)) {
		t.Fatalf("insts = %d, want %d (both modes must count)", c.Insts(), len(stream))
	}
}

// TestCoreSnapshotComplete is the reflection guard. Every Core field is
// classified as checkpointed or operational, and every field of coreState
// and portSched that an assignment would share is on the deep-copy list
// that Snapshot clones and Restore refills.
func TestCoreSnapshotComplete(t *testing.T) {
	checkpointed := map[string]bool{
		// hier, bp and bwb snapshot themselves into CoreState.
		"coreState": true, "hier": true, "bp": true, "bwb": true,
	}
	operational := map[string]bool{
		// cfg is construction-time; wayScratch is a reusable scratch
		// buffer; observer/tel/nextSample are host-side instrumentation;
		// mode is the runtime consumption switch; drainSet is derived
		// from the drain table, and Restore rebuilds it (checkDerived).
		"cfg": true, "wayScratch": true, "observer": true,
		"tel": true, "nextSample": true, "mode": true, "drainSet": true,
	}
	typ := reflect.TypeOf(Core{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if checkpointed[name] == operational[name] {
			t.Errorf("cpu.Core field %q is not classified as checkpointed or operational; update Snapshot/Restore and this test", name)
		}
	}
	for _, tc := range []struct {
		typ        reflect.Type
		deepCopied map[string]bool
	}{
		{reflect.TypeOf(coreState{}), map[string]bool{
			"robRing": true, "lqRing": true, "sqRing": true, "mcqRing": true,
			"port": true, "dPort": true, "dMSHR": true, "bMSHR": true,
			"bndstrDrain": true,
		}},
		{reflect.TypeOf(portSched{}), map[string]bool{"ring": true, "overflow": true}},
	} {
		for i := 0; i < tc.typ.NumField(); i++ {
			f := tc.typ.Field(i)
			if shares := sharesStorage(f.Type); shares != tc.deepCopied[f.Name] {
				t.Errorf("cpu.%s field %q: shares storage %v, on the deep-copy list %v; update Snapshot/Restore and this test",
					tc.typ.Name(), f.Name, shares, tc.deepCopied[f.Name])
			}
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
