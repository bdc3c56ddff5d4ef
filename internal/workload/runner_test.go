package workload

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"aos/internal/core"
	"aos/internal/instrument"
	"aos/internal/isa"
)

type streamSink struct{ insts []isa.Inst }

func (r *streamSink) Emit(in *isa.Inst)      { r.insts = append(r.insts, *in) }
func (r *streamSink) EmitBatch(b []isa.Inst) { r.insts = append(r.insts, b...) }

func newRecordedMachine(t *testing.T, scheme instrument.Scheme) (*core.Machine, *streamSink) {
	t.Helper()
	m, err := core.New(core.Config{Scheme: scheme})
	if err != nil {
		t.Fatal(err)
	}
	rec := &streamSink{}
	m.SetSink(rec)
	return m, rec
}

// TestRunnerPiecewiseMatchesRun: driving a Runner in several RunTo slices
// must produce the byte-identical instruction stream of a one-shot Run —
// the property every warmup split and checkpoint boundary relies on.
func TestRunnerPiecewiseMatchesRun(t *testing.T) {
	p, _ := ByName("mcf")
	p = p.Clone()
	p.Instructions = 60_000
	total := p.Instructions

	mA, recA := newRecordedMachine(t, instrument.AOS)
	if err := p.Run(mA, 7); err != nil {
		t.Fatal(err)
	}

	mC, recC := newRecordedMachine(t, instrument.AOS)
	rc, err := NewRunner(p, mC, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, until := range []uint64{13_000, 13_001, 40_000, total} {
		if err := rc.RunTo(context.Background(), until, total); err != nil {
			t.Fatal(err)
		}
	}
	mC.Flush()

	if len(recA.insts) == 0 {
		t.Fatal("one-shot run produced no instructions")
	}
	if !reflect.DeepEqual(recA.insts, recC.insts) {
		t.Fatalf("sliced RunTo diverged from one-shot Run: %d vs %d insts", len(recC.insts), len(recA.insts))
	}
	if rc.Produced() < total {
		t.Fatalf("sliced runner stopped at %d, want >= %d", rc.Produced(), total)
	}
}

// TestRunnerStateResumeDeterminism: checkpoint a (machine, runner) pair at an
// arbitrary boundary, resume both into fresh objects and then again in place,
// and require the continuation's instruction stream and final counts to be
// byte-identical to the original running straight through.
func TestRunnerStateResumeDeterminism(t *testing.T) {
	for _, scheme := range []instrument.Scheme{instrument.AOS, instrument.Watchdog, instrument.MTE} {
		p, _ := ByName("hmmer")
		const half, total = 30_000, 60_000

		m, rec := newRecordedMachine(t, scheme)
		r, err := NewRunner(p, m, 11)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.RunTo(context.Background(), half, total); err != nil {
			t.Fatal(err)
		}
		msnap := m.Snapshot()
		rsnap := r.State()
		prefix := len(rec.insts)
		if err := r.RunTo(context.Background(), total, total); err != nil {
			t.Fatal(err)
		}
		m.Flush()
		wantTail := rec.insts[prefix:]
		wantCounts := m.Counts()

		// Trial 0 builds a runner on a fresh machine; trial 1 restores
		// both in place, over the buffers trial 0's continuation grew.
		m2, rec2 := newRecordedMachine(t, scheme)
		var r2 *Runner
		for trial := 0; trial < 2; trial++ {
			rec2.insts = rec2.insts[:0]
			if err := m2.Restore(msnap); err != nil {
				t.Fatal(err)
			}
			if trial == 0 {
				if r2, err = NewRunnerFromState(p, m2, rsnap); err != nil {
					t.Fatal(err)
				}
			} else if err := r2.Restore(rsnap); err != nil {
				t.Fatal(err)
			}
			if r2.Produced() != rsnap.Produced() {
				t.Fatalf("%v: resumed runner at %d, checkpoint at %d", scheme, r2.Produced(), rsnap.Produced())
			}
			if err := r2.RunTo(context.Background(), total, total); err != nil {
				t.Fatal(err)
			}
			m2.Flush()
			if !reflect.DeepEqual(rec2.insts, wantTail) {
				t.Fatalf("%v trial %d: resumed stream diverged (%d vs %d insts)",
					scheme, trial, len(rec2.insts), len(wantTail))
			}
			got := m2.Counts()
			// The resumed machine's counts continue from the checkpoint, so
			// they must equal the straight-through totals exactly.
			if !reflect.DeepEqual(got, wantCounts) {
				t.Fatalf("%v trial %d: counts diverged:\n got %+v\nwant %+v", scheme, trial, got, wantCounts)
			}
		}
	}
}

// TestRunnerStateWrongProfile: resuming under a different profile must fail.
func TestRunnerStateWrongProfile(t *testing.T) {
	p, _ := ByName("mcf")
	m, _ := newRecordedMachine(t, instrument.Baseline)
	r, err := NewRunner(p, m, 3)
	if err != nil {
		t.Fatal(err)
	}
	other, _ := ByName("gobmk")
	if _, err := NewRunnerFromState(other, m, r.State()); err == nil {
		t.Fatal("NewRunnerFromState accepted a state from a different profile")
	}
}

// TestRNGCaptureFastPath pins the math/rand layout assumption: on this
// toolchain the reflection capture must take the fast path, and both
// in-place restore paths (direct state write and reseeding plus draw
// burning) must reproduce the exact stream the original source continues
// to produce.
func TestRNGCaptureFastPath(t *testing.T) {
	src := newCountingSource(42)
	r := rand.New(src)
	for i := 0; i < 12_345; i++ {
		r.Float64()
	}
	st := captureRNG(src)
	if !st.fast {
		t.Fatal("captureRNG did not take the fast path; math/rand layout changed — restore falls back to O(draws) burning")
	}
	if st.draws != src.draws {
		t.Fatalf("captured draws %d, source drew %d", st.draws, src.draws)
	}

	// Restore in place into sources that have moved elsewhere, as a
	// runner's source has by the time it restores the next checkpoint.
	fast, burned := newCountingSource(42), newCountingSource(42)
	for i := 0; i < 777; i++ {
		fast.Uint64()
		burned.Uint64()
	}
	fast.restore(42, st)
	slow := st
	slow.fast = false
	burned.restore(42, slow)
	if fast.draws != st.draws || burned.draws != st.draws {
		t.Fatalf("restored draw counts %d/%d, want %d", fast.draws, burned.draws, st.draws)
	}
	for i := 0; i < 2_000; i++ {
		want := src.Uint64()
		if got := fast.Uint64(); got != want {
			t.Fatalf("draw %d: fast-path restore diverged: %x != %x", i, got, want)
		}
		if got := burned.Uint64(); got != want {
			t.Fatalf("draw %d: burn restore diverged: %x != %x", i, got, want)
		}
	}
}

// TestRunnerStateComplete is the reflection guard. Every Runner field is
// classified as checkpointed (in RunnerState, possibly under a different
// representation) or derived/operational, and every runnerState field an
// assignment would share is on the deep-copy list that clone copies.
func TestRunnerStateComplete(t *testing.T) {
	checkpointed := map[string]bool{
		// p is captured as the profile name; src as the captured RNG state.
		"runnerState": true, "p": true, "src": true,
	}
	operational := map[string]bool{
		// m is runtime wiring; rng is a view over src; the rest are
		// draw-free derivations recomputed by deriveParams on every
		// construction path.
		"m": true, "rng": true,
		"chainFrac": true, "memFrac": true, "storeShare": true,
		"burstLen": true, "stride": true, "callGap": true, "allocGap": true,
	}
	typ := reflect.TypeOf(Runner{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if checkpointed[name] == operational[name] {
			t.Errorf("workload.Runner field %q is not classified as checkpointed or derived; update State/NewRunnerFromState and this test", name)
		}
	}
	deepCopied := map[string]bool{"chunks": true, "bias": true}
	st := reflect.TypeOf(runnerState{})
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		if shares := sharesStorage(f.Type); shares != deepCopied[f.Name] {
			t.Errorf("workload.runnerState field %q: shares storage %v, on the deep-copy list %v; update clone and this test",
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
