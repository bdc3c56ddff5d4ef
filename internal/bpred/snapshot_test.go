package bpred

import (
	"reflect"
	"testing"
)

// TestSnapshotRestoreDeterminism: a predictor restored at branch N must
// produce the same prediction sequence as the original from N on.
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
	a := NewTAGE()
	train(a, 0, 10_000)
	s := a.Snapshot()
	want := train(a, 10_000, 30_000)

	b := NewTAGE()
	b.Restore(s)
	got := train(b, 10_000, 30_000)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("restored predictor diverged from straight-line execution")
	}
	if a.stats != b.stats {
		t.Fatalf("stats diverged: %+v vs %+v", a.stats, b.stats)
	}
	// The snapshot survived both continuations: two fresh restores agree.
	c, d := NewTAGE(), NewTAGE()
	c.Restore(s)
	d.Restore(s)
	if !reflect.DeepEqual(c, d) {
		t.Fatal("snapshot mutated by a restored predictor's continuation")
	}
}

// TestTAGESnapshotComplete is the reflection guard against fields escaping
// the snapshot.
func TestTAGESnapshotComplete(t *testing.T) {
	covered := map[string]bool{
		"base": true, "banks": true, "ghist": true,
		"rng": true, "ticks": true, "stats": true,
	}
	typ := reflect.TypeOf(TAGE{})
	for i := 0; i < typ.NumField(); i++ {
		if !covered[typ.Field(i).Name] {
			t.Errorf("bpred.TAGE field %q is not covered by Snapshot/Restore; update snapshot.go and this test", typ.Field(i).Name)
		}
	}
	st := reflect.TypeOf(State{})
	if st.NumField() != len(covered) {
		t.Errorf("bpred.State has %d fields, covered set has %d; keep them in sync", st.NumField(), len(covered))
	}
}
