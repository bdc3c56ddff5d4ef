package sampling

import (
	"context"
	"reflect"
	"testing"

	"aos/internal/core"
	"aos/internal/cpu"
	"aos/internal/instrument"
	"aos/internal/workload"
)

func sampledCell(t *testing.T, scheme instrument.Scheme) (*workload.Profile, *core.Machine, *cpu.Core) {
	t.Helper()
	p, ok := workload.ByName("hmmer")
	if !ok {
		t.Fatal("no hmmer profile")
	}
	p = p.Clone()
	p.Instructions = 120_000
	m, err := core.New(core.Config{Scheme: scheme})
	if err != nil {
		t.Fatal(err)
	}
	c := cpu.New(cpu.DefaultConfig())
	m.SetSink(c)
	m.SetBatch(core.EmitBatchSize)
	return p, m, c
}

func testSchedule() Schedule {
	return Schedule{Warmup: 60_000, Detail: 1_000, Window: 4_000, Windows: 4}
}

// TestSampledColdVsResumedByteIdentical: a run resumed entirely from the
// checkpoint store must produce the byte-identical estimate, architectural
// state (counts, exception log, heap statistics, bounds-table resizes) and
// timing statistics of the cold run that populated the store — for every
// protection scheme — and must run only its measurement windows: every
// boundary, the end of the run included, is a restore, and no U segment
// runs again.
func TestSampledColdVsResumedByteIdentical(t *testing.T) {
	for _, scheme := range instrument.AllSchemes() {
		p, m, c := sampledCell(t, scheme)
		sched, err := testSchedule().Normalize(p.Instructions)
		if err != nil {
			t.Fatal(err)
		}
		store := NewStore()
		key := KeySpec{Benchmark: p.Name, Seed: 7, Instructions: p.Instructions, Scheme: scheme.String()}
		cfg := Config{Schedule: sched, Store: store, Key: key}
		boundaries := sched.Windows + 1

		cold, err := Run(context.Background(), p, m, c, 7, cfg)
		if err != nil {
			t.Fatalf("%v: cold: %v", scheme, err)
		}
		if cold.Hits != 0 || cold.Misses != boundaries {
			t.Fatalf("%v: cold run hits/misses = %d/%d, want 0/%d", scheme, cold.Hits, cold.Misses, boundaries)
		}
		if _, _, entries := store.Stats(); entries != boundaries {
			t.Fatalf("%v: cold run stored %d checkpoints, want %d", scheme, entries, boundaries)
		}
		coldCPU := c.Finalize()

		p2, m2, c2 := sampledCell(t, scheme)
		warm, err := Run(context.Background(), p2, m2, c2, 7, cfg)
		if err != nil {
			t.Fatalf("%v: resumed: %v", scheme, err)
		}
		if warm.Hits != boundaries || warm.Misses != 0 {
			t.Fatalf("%v: resumed run hits/misses = %d/%d, want %d/0", scheme, warm.Hits, warm.Misses, boundaries)
		}
		for _, seg := range warm.Segments {
			if !seg.Detailed {
				t.Fatalf("%v: resumed run fast-forwarded instructions %d..%d", scheme, seg.StartInst, seg.EndInst)
			}
		}
		if got := detailedInsts(warm); got != cold.Est.SampledInsts {
			t.Fatalf("%v: resumed run's detailed segments consumed %d instructions, its windows measured %d",
				scheme, got, cold.Est.SampledInsts)
		}
		if got := detailedInsts(cold); got <= cold.Est.SampledInsts {
			t.Fatalf("%v: cold run's detailed segments consumed %d instructions, no more than its windows' %d",
				scheme, got, cold.Est.SampledInsts)
		}
		if !reflect.DeepEqual(warm.Est, cold.Est) {
			t.Fatalf("%v: estimates diverged:\ncold %+v\nwarm %+v", scheme, cold.Est, warm.Est)
		}
		if !reflect.DeepEqual(warm.WarmCounts, cold.WarmCounts) {
			t.Fatalf("%v: warm-up counts diverged", scheme)
		}
		if !reflect.DeepEqual(m2.Counts(), m.Counts()) {
			t.Fatalf("%v: machine counts diverged", scheme)
		}
		if !reflect.DeepEqual(m2.Exceptions(), m.Exceptions()) {
			t.Fatalf("%v: exception logs diverged:\ncold %v\nwarm %v", scheme, m.Exceptions(), m2.Exceptions())
		}
		if m2.Heap.Stats() != m.Heap.Stats() {
			t.Fatalf("%v: heap statistics diverged:\ncold %+v\nwarm %+v", scheme, m.Heap.Stats(), m2.Heap.Stats())
		}
		if !reflect.DeepEqual(m2.OS.Resizes(), m.OS.Resizes()) {
			t.Fatalf("%v: bounds-table resizes diverged", scheme)
		}
		if !reflect.DeepEqual(c2.Finalize(), coldCPU) {
			t.Fatalf("%v: timing statistics diverged", scheme)
		}
	}
}

// detailedInsts sums the instructions a run consumed in its detailed
// segments.
func detailedInsts(res *Result) uint64 {
	var n uint64
	for _, seg := range res.Segments {
		if seg.Detailed {
			n += seg.EndInst - seg.StartInst
		}
	}
	return n
}

// TestSampledPartialStore: a run against a store that lacks one boundary's
// checkpoint fast-forwards to that window's start (or to the end of the
// run) and runs its U segment, restores every other boundary, and matches
// the cold run's estimate and architectural and timing state — whether
// the missing boundary is window 0's, a middle window's or the end's.
func TestSampledPartialStore(t *testing.T) {
	p, m, c := sampledCell(t, instrument.AOS)
	sched, err := testSchedule().Normalize(p.Instructions)
	if err != nil {
		t.Fatal(err)
	}
	full := NewStore()
	key := KeySpec{Benchmark: p.Name, Seed: 7, Instructions: p.Instructions, Scheme: instrument.AOS.String()}
	cold, err := Run(context.Background(), p, m, c, 7, Config{Schedule: sched, Store: full, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	coldCPU := c.Finalize()
	for _, missing := range []int{0, sched.Windows / 2, sched.Windows} {
		k := key
		k.Schedule = sched
		k.Boundary = missing
		skip := k.Hash()
		partial := NewStore()
		for _, h := range full.Keys() {
			if h != skip {
				cp, _ := full.Get(h)
				partial.Put(h, cp)
			}
		}
		if _, _, entries := partial.Stats(); entries != sched.Windows {
			t.Fatalf("boundary %d: partial store holds %d checkpoints, want %d", missing, entries, sched.Windows)
		}

		p2, m2, c2 := sampledCell(t, instrument.AOS)
		got, err := Run(context.Background(), p2, m2, c2, 7, Config{Schedule: sched, Store: partial, Key: key})
		if err != nil {
			t.Fatalf("boundary %d: %v", missing, err)
		}
		if got.Hits != sched.Windows || got.Misses != 1 {
			t.Fatalf("boundary %d: hits/misses = %d/%d, want %d/1", missing, got.Hits, got.Misses, sched.Windows)
		}
		if !reflect.DeepEqual(got.Est, cold.Est) {
			t.Fatalf("boundary %d: estimates diverged:\ncold %+v\ngot  %+v", missing, cold.Est, got.Est)
		}
		if !reflect.DeepEqual(got.WarmCounts, cold.WarmCounts) {
			t.Fatalf("boundary %d: warm-up counts diverged", missing)
		}
		if !reflect.DeepEqual(m2.Counts(), m.Counts()) {
			t.Fatalf("boundary %d: machine counts diverged", missing)
		}
		if !reflect.DeepEqual(m2.Exceptions(), m.Exceptions()) {
			t.Fatalf("boundary %d: exception logs diverged", missing)
		}
		if m2.Heap.Stats() != m.Heap.Stats() {
			t.Fatalf("boundary %d: heap statistics diverged", missing)
		}
		if !reflect.DeepEqual(m2.OS.Resizes(), m.OS.Resizes()) {
			t.Fatalf("boundary %d: bounds-table resizes diverged", missing)
		}
		if !reflect.DeepEqual(c2.Finalize(), coldCPU) {
			t.Fatalf("boundary %d: timing statistics diverged", missing)
		}
	}
}

// TestSampledSegments: the mode timeline must alternate FF/detailed with
// frozen commit clocks in FF segments and advancing clocks in detailed
// ones.
func TestSampledSegments(t *testing.T) {
	p, m, c := sampledCell(t, instrument.AOS)
	sched, err := testSchedule().Normalize(p.Instructions)
	if err != nil {
		t.Fatal(err)
	}
	var observed []Segment
	res, err := Run(context.Background(), p, m, c, 7, Config{
		Schedule:  sched,
		OnSegment: func(s Segment) { observed = append(observed, s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(observed, res.Segments) {
		t.Fatal("OnSegment stream differs from Result.Segments")
	}
	// warmup FF + per-window (FF gap reaching it + detailed U+W) + tail FF.
	detailed := 0
	for i, s := range res.Segments {
		if s.Detailed {
			detailed++
			if s.EndCycle <= s.StartCycle {
				t.Errorf("segment %d: detailed segment did not advance the commit clock", i)
			}
		} else if s.EndCycle != s.StartCycle {
			t.Errorf("segment %d: FF segment advanced the commit clock %d -> %d", i, s.StartCycle, s.EndCycle)
		}
		if i > 0 && s.Detailed == res.Segments[i-1].Detailed {
			t.Errorf("segment %d: consecutive segments share mode %v", i, s.Detailed)
		}
	}
	if detailed != sched.Windows {
		t.Fatalf("detailed segments = %d, want %d", detailed, sched.Windows)
	}
	if res.Segments[0].Detailed || res.Segments[len(res.Segments)-1].Detailed {
		t.Fatal("run must start and end in fast-forward")
	}
}
