package bpred

import (
	"fmt"
	"reflect"
	"testing"
)

// TestSnapshotRestoreDeterminism: a predictor restored at branch N must
// start from exactly the original's state at N and produce the same
// prediction sequence as the original from N on. Snapshots are taken both
// in training (at branch 1,000, when the continuation still rewrites the
// tables) and once it has settled.
func TestSnapshotRestoreDeterminism(t *testing.T) {
	train := func(p *TAGE, from, to int) []bool {
		var preds []bool
		for i := from; i < to; i++ {
			pc := uint32(i*7) % 512
			taken := (i*i)%3 == 0
			preds = append(preds, p.Update(pc, taken))
		}
		return preds
	}
	for _, at := range []int{10_000, 1_000} {
		a := NewTAGE()
		train(a, 0, at)
		s := a.Snapshot()
		// fmt renders the tables' contents: a copy of the state that
		// shares nothing with the predictor or its snapshot.
		atSnap := fmt.Sprint(a.tageState)
		want := train(a, at, at+20_000)

		b := NewTAGE()
		b.Restore(s)
		if fmt.Sprint(b.tageState) != atSnap {
			t.Fatalf("at %d: snapshot mutated by the original's continuation", at)
		}
		got := train(b, at, at+20_000)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("at %d: restored predictor diverged from straight-line execution", at)
		}
		if a.stats != b.stats {
			t.Fatalf("at %d: stats diverged: %+v vs %+v", at, a.stats, b.stats)
		}
		// The snapshot survived both continuations.
		c := NewTAGE()
		c.Restore(s)
		if fmt.Sprint(c.tageState) != atSnap {
			t.Fatalf("at %d: snapshot mutated by a restored predictor's continuation", at)
		}
	}
}

// TestFoldRegistersMatchFold: every bank's fold registers equal
// foldHistory of the history they stand for after each Update of the
// golden stream, and after a Restore into a predictor that trained
// elsewhere.
func TestFoldRegistersMatchFold(t *testing.T) {
	check := func(p *TAGE, when string, update int) {
		t.Helper()
		for b := range p.folds {
			want := foldRegs{
				idx: p.foldHistory(histLens[b], bankBits),
				tag: p.foldHistory(histLens[b], tagBits),
			}
			if p.folds[b] != want {
				t.Fatalf("%s %d: bank %d registers %+v, foldHistory %+v", when, update, b, p.folds[b], want)
			}
		}
	}
	p := NewTAGE()
	check(p, "new predictor", 0)
	var snap *State
	n := 0
	goldenStream(20_000, func(pc uint32, taken bool) {
		p.Update(pc, taken)
		n++
		check(p, "after update", n)
		if n == 5_000 {
			snap = p.Snapshot()
		}
	})

	other := NewTAGE()
	for i := 0; i < 777; i++ {
		other.Update(uint32(i*13), i%3 != 0)
	}
	other.Restore(snap)
	check(other, "after Restore of update", 5_000)
}

// TestTAGESnapshotComplete is the reflection guard. Every TAGE field is
// checkpointed or derived from checkpointed state, and every tageState
// field an assignment would share is on the deep-copy list that Snapshot
// clones and Restore copies into the predictor's own tables.
func TestTAGESnapshotComplete(t *testing.T) {
	// folds are the fold registers, which Restore rebuilds from ghist
	// (TestFoldRegistersMatchFold).
	classified := map[string]bool{"tageState": true, "folds": true}
	typ := reflect.TypeOf(TAGE{})
	for i := 0; i < typ.NumField(); i++ {
		if name := typ.Field(i).Name; !classified[name] {
			t.Errorf("bpred.TAGE field %q is outside tageState, which checkpoints copy; move it there or classify it here", name)
		}
	}
	deepCopied := map[string]bool{"base": true, "banks": true}
	st := reflect.TypeOf(tageState{})
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		if shares := sharesStorage(f.Type); shares != deepCopied[f.Name] {
			t.Errorf("bpred.tageState field %q: shares storage %v, on the deep-copy list %v; update snapshot.go and this test",
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
