package experiments

import (
	"reflect"
	"sync"
	"testing"

	"aos/internal/core"
	"aos/internal/cpu"
	"aos/internal/instrument"
	"aos/internal/telemetry"
)

// TestMatrixTelemetryEquivalence is the flight recorder's passivity
// contract: a sampled matrix must produce a Matrix — and byte-identical
// rendered figures — indistinguishable from an unsampled one. Telemetry
// observes the simulation; it never feeds back into it.
func TestMatrixTelemetryEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("two matrix runs")
	}
	plain := refMatrix(t)
	o := refOptions()
	var mu sync.Mutex
	timelines := make(map[string]*telemetry.Timeline)
	o.TelemetryInterval = 512
	o.OnTimeline = func(b string, s instrument.Scheme, tl *telemetry.Timeline) {
		mu.Lock()
		timelines[b+"/"+s.String()] = tl
		mu.Unlock()
	}
	sampled, err := RunMatrix(o)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(plain.Runs, sampled.Runs) {
		for _, b := range plain.Benchmarks {
			for _, s := range instrument.Schemes() {
				if !reflect.DeepEqual(plain.Runs[b][s], sampled.Runs[b][s]) {
					t.Errorf("%s/%v diverges:\n  unsampled: %+v\n  sampled:   %+v",
						b, s, plain.Runs[b][s], sampled.Runs[b][s])
				}
			}
		}
		t.Fatal("matrix contents differ between sampled and unsampled runs")
	}
	f14p, err := Fig14(plain)
	if err != nil {
		t.Fatal(err)
	}
	f14s, err := Fig14(sampled)
	if err != nil {
		t.Fatal(err)
	}
	if f14p.String() != f14s.String() {
		t.Error("rendered Fig 14 differs between sampled and unsampled runs")
	}
	f18p, _ := Fig18(plain)
	f18s, _ := Fig18(sampled)
	if f18p.CSV() != f18s.CSV() {
		t.Error("Fig 18 CSV differs between sampled and unsampled runs")
	}

	// Every matrix cell produced a timeline with rows in it.
	want := len(plain.Benchmarks) * len(instrument.Schemes())
	if len(timelines) != want {
		t.Fatalf("got %d timelines, want %d", len(timelines), want)
	}
	for cell, tl := range timelines {
		if len(tl.Samples()) == 0 {
			t.Errorf("%s: timeline has no samples", cell)
		}
	}
}

// TestRunSpecFullTelemetry pins the operational extras around one cell:
// the result bytes match a plain RunSpec run, the timeline arrives, and
// the progress callback covers the whole run (warmup included).
func TestRunSpecFullTelemetry(t *testing.T) {
	spec := SimSpec{Benchmark: "mcf", Scheme: "AOS", Instructions: 6_000, Seed: 1}
	plain, err := RunSpec(t.Context(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var calls int
	var lastDone, lastTotal uint64
	full, tl, err := RunSpecFull(t.Context(), spec, RunConfig{
		TelemetryInterval: 256,
		OnProgress: func(done, total uint64) {
			calls++
			lastDone, lastTotal = done, total
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	pb, _ := plain.JSON()
	fb, _ := full.JSON()
	if string(pb) != string(fb) {
		t.Errorf("sampled result bytes differ from unsampled:\n  plain: %s\n  full:  %s", pb, fb)
	}
	if tl == nil || len(tl.Samples()) == 0 {
		t.Fatalf("no timeline samples recorded (tl=%v)", tl)
	}
	if calls == 0 {
		t.Fatal("progress callback never fired")
	}
	if lastDone != lastTotal {
		t.Errorf("final progress = %d/%d, want completion", lastDone, lastTotal)
	}
}

// TestTimelineRecordsResizeSlices drives the HBT through real resizes —
// a live set big enough to overflow 1-way rows — and checks the timing
// core turned each resize into a duration slice with migration args.
func TestTimelineRecordsResizeSlices(t *testing.T) {
	m, err := core.New(core.Config{Scheme: instrument.AOS, InitialHBTAssoc: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := cpu.New(cpu.DefaultConfig())
	m.SetSink(c)
	tl := telemetry.NewTimeline(telemetry.NewRegistry(), 4096)
	c.AttachTelemetry(tl)
	m.AttachTelemetry(tl)

	var ptrs []core.Ptr
	for i := 0; i < 300_000; i++ {
		p, err := m.Malloc(32)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	for _, p := range ptrs {
		if err := m.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	m.Flush()

	resizes := len(m.OS.Resizes())
	if resizes == 0 {
		t.Fatal("stress run triggered no resizes; slice path unexercised")
	}
	slices := tl.Slices()
	if len(slices) != resizes {
		t.Fatalf("got %d timeline slices, want %d (one per resize)", len(slices), resizes)
	}
	for _, s := range slices {
		if s.Name != "hbt_resize" {
			t.Errorf("slice name = %q, want hbt_resize", s.Name)
		}
		if s.Dur == 0 {
			t.Error("resize slice has zero duration")
		}
		if s.Args["new_assoc"] != 2*s.Args["old_assoc"] {
			t.Errorf("resize slice args %v: new_assoc should double old_assoc", s.Args)
		}
		if s.Args["moved_bytes"] == 0 || s.Args["traffic_bytes"] == 0 {
			t.Errorf("resize slice args %v: migration byte counts missing", s.Args)
		}
	}
}
