package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"aos/internal/instrument"
	"aos/internal/sampling"
	"aos/internal/stats"
	"aos/internal/telemetry"
)

// errorBoundTolerance is the pinned acceptance bound: sampled geomean IPC
// and per-scheme overhead geomeans must land within 2% of full-detail runs
// across the Fig 14 matrix.
const errorBoundTolerance = 0.02

func relErr(sampled, exact float64) float64 {
	if exact == 0 {
		return math.Inf(1)
	}
	return math.Abs(sampled-exact) / exact
}

// TestSampledErrorBound runs the Fig 14 matrix in exact and sampled mode
// and pins the sampling error: geomean IPC per scheme and the normalized
// overhead geomeans must agree within errorBoundTolerance.
func TestSampledErrorBound(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix pair is expensive; run without -short")
	}
	exactOpts := Options{Instructions: 150_000, Seed: 7}
	exact, err := RunMatrix(exactOpts)
	if err != nil {
		t.Fatal(err)
	}
	sampledOpts := exactOpts
	sampledOpts.Sampling = &sampling.Schedule{Windows: 8, Detail: 1_000, Window: 4_000}
	sampled, err := RunMatrix(sampledOpts)
	if err != nil {
		t.Fatal(err)
	}

	// Per-scheme geomean IPC across the matrix.
	for _, s := range instrument.Schemes() {
		var e, g []float64
		for _, name := range exact.Benchmarks {
			er, err := exact.run(name, s)
			if err != nil {
				t.Fatal(err)
			}
			sr, err := sampled.run(name, s)
			if err != nil {
				t.Fatal(err)
			}
			e = append(e, er.CPU.IPC())
			g = append(g, sr.CPU.IPC())
			if sr.Counts != er.Counts {
				t.Errorf("%s/%v: sampled architectural counts diverged from exact", name, s)
			}
		}
		if re := relErr(stats.Geomean(g), stats.Geomean(e)); re > errorBoundTolerance {
			t.Errorf("%v: sampled geomean IPC off by %.2f%% (> %.0f%%)", s, 100*re, 100*errorBoundTolerance)
		}
	}

	// Per-scheme overhead geomeans (the Fig 14 headline numbers).
	fe, err := Fig14(exact)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Fig14(sampled)
	if err != nil {
		t.Fatal(err)
	}
	for s, ge := range fe.Geomean {
		if re := relErr(fs.Geomean[s], ge); re > errorBoundTolerance {
			t.Errorf("%v: sampled overhead geomean %.4f vs exact %.4f (off %.2f%%)",
				s, fs.Geomean[s], ge, 100*re)
		}
	}
}

// TestSampledCheckpointReuseByteIdentity: a sampled cell resumed from the
// checkpoint store must produce byte-identical SimResult JSON to the cold
// run that populated the store.
func TestSampledCheckpointReuseByteIdentity(t *testing.T) {
	spec := SimSpec{
		Benchmark: "sjeng", Scheme: "aos", Instructions: 120_000, Seed: 7,
		Sampling: &SamplingSpec{Windows: 4, Detail: 1_000, Window: 4_000},
	}
	store := sampling.NewStore()
	cold, _, err := RunSpecFull(context.Background(), spec, RunConfig{Checkpoints: store})
	if err != nil {
		t.Fatal(err)
	}
	if _, misses, _ := store.Stats(); misses == 0 {
		t.Fatal("cold run did not populate the store")
	}
	resumed, _, err := RunSpecFull(context.Background(), spec, RunConfig{Checkpoints: store})
	if err != nil {
		t.Fatal(err)
	}
	hits, _, _ := store.Stats()
	if hits == 0 {
		t.Fatal("resumed run did not hit the store")
	}
	cj, err := cold.JSON()
	if err != nil {
		t.Fatal(err)
	}
	rj, err := resumed.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cj, rj) {
		t.Fatalf("resumed result diverged from cold:\ncold    %s\nresumed %s", cj, rj)
	}
}

// TestSampledTelemetryAnnotated: a sampled run with the flight recorder
// attached must export a trace the validator accepts — every segment
// annotated with a sim/* mode slice, and no counter sample landing inside
// a fast-forward span (probes pause during F-gaps by construction, since
// sampling is driven from the detailed commit path).
func TestSampledTelemetryAnnotated(t *testing.T) {
	spec := SimSpec{
		Benchmark: "mcf", Scheme: "aos", Instructions: 120_000, Seed: 7,
		Sampling: &SamplingSpec{Windows: 4, Detail: 1_000, Window: 4_000},
	}
	_, tl, err := RunSpecFull(context.Background(), spec, RunConfig{TelemetryInterval: 512})
	if err != nil {
		t.Fatal(err)
	}
	if tl == nil {
		t.Fatal("no timeline recorded")
	}
	var buf bytes.Buffer
	if err := tl.WriteTraceEvents(&buf, "mcf/aos"); err != nil {
		t.Fatal(err)
	}
	st, err := telemetry.ValidateTraceJSON(buf.Bytes())
	if err != nil {
		t.Fatalf("sampled trace rejected by validator: %v", err)
	}
	// 4 windows -> 4 detailed slices plus at least one FF slice each for
	// the warmup leg and the tail gap.
	if st.SimSlices < 5 {
		t.Fatalf("SimSlices = %d, want >= 5", st.SimSlices)
	}
	var haveDet, haveFF bool
	for _, name := range st.SliceNames {
		switch name {
		case "sim/detailed":
			haveDet = true
		case "sim/fastforward":
			haveFF = true
		}
	}
	if !haveDet || !haveFF {
		t.Fatalf("mode slices missing from trace: %v", st.SliceNames)
	}
	checkWindowIPC(t, tl)
}

// TestSampledTelemetryResumedMatchesCold: a recorded sampled cell ignores
// the checkpoint store, because a restore skips each window's detailed
// warm-up, whose commits the flight recorder samples. With a store
// attached it neither reads nor writes it, and records exactly the samples
// and slices of the same cell run without one. Restores with the recorder
// attached stay possible through sampling.Run; core's
// TestRestoreRefreshesTelemetry and cpu's TestRestoreSkipsTelemetryWindow
// pin what the recorder reads across one.
func TestSampledTelemetryResumedMatchesCold(t *testing.T) {
	// omnetpp frees during its run, so hbt_clears_total moves too.
	for _, bench := range []string{"mcf", "omnetpp"} {
		spec := SimSpec{
			Benchmark: bench, Scheme: "aos", Instructions: 120_000, Seed: 7,
			Sampling: &SamplingSpec{Windows: 4, Detail: 1_000, Window: 4_000},
		}
		trace := func(rc RunConfig) []byte {
			t.Helper()
			_, tl, err := RunSpecFull(context.Background(), spec, rc)
			if err != nil {
				t.Fatal(err)
			}
			if len(tl.Samples()) == 0 {
				t.Fatalf("%s: the run recorded no samples", bench)
			}
			var buf bytes.Buffer
			if err := tl.WriteTraceEvents(&buf, bench); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		want := trace(RunConfig{TelemetryInterval: 512})
		rc := RunConfig{Checkpoints: sampling.NewStore(), TelemetryInterval: 512}
		for pass := 0; pass < 2; pass++ {
			got := trace(rc)
			if hits, misses, entries := rc.Checkpoints.Stats(); hits != 0 || misses != 0 || entries != 0 {
				t.Fatalf("%s pass %d: a recorded run used the store: %d hits, %d misses, %d entries",
					bench, pass, hits, misses, entries)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s pass %d: the run with a store recorded a different timeline", bench, pass)
			}
		}
	}
}

// TestSimSpecSamplingCanonical: the sampling block must change the cell's
// address (estimates are not exact results), normalize its defaults, and
// leave exact specs' canonical bytes untouched.
func TestSimSpecSamplingCanonical(t *testing.T) {
	exact := SimSpec{Benchmark: "mcf", Scheme: "aos", Instructions: 400_000, Seed: 7}
	if bytes.Contains(exact.Canonical(), []byte("sampling")) {
		t.Fatal("exact spec canonical encoding mentions sampling")
	}

	s := exact
	s.Sampling = &SamplingSpec{}
	ns, err := s.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if ns.Sampling.Windows != sampling.DefaultWindows ||
		ns.Sampling.Detail != sampling.DefaultDetail ||
		ns.Sampling.Window != sampling.DefaultWindow || ns.Sampling.Gap == 0 {
		t.Fatalf("Normalize did not fill sampling defaults: %+v", ns.Sampling)
	}
	ne, err := exact.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if ns.Hash() == ne.Hash() {
		t.Fatal("sampled and exact cells share an address")
	}
	// Elided and explicit defaults address the same cell.
	s2 := exact
	s2.Sampling = &SamplingSpec{
		Windows: ns.Sampling.Windows, Detail: ns.Sampling.Detail,
		Window: ns.Sampling.Window, Gap: ns.Sampling.Gap,
	}
	ns2, err := s2.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if ns2.Hash() != ns.Hash() {
		t.Fatal("explicit sampling defaults address a different cell than elided ones")
	}
	// Round-trip through strict JSON decoding.
	var rt SimSpec
	enc, err := json.Marshal(ns)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.UnmarshalJSON(enc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rt, ns) {
		t.Fatalf("sampling block did not survive a JSON round trip:\n%+v\n%+v", rt, ns)
	}
}
