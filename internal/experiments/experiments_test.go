package experiments

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"aos/internal/instrument"
	"aos/internal/workload"
)

func tinyOpts() Options { return Options{Instructions: 15_000, Seed: 1} }

// TestRunMatrixShape checks the reference matrix's shape and the figures
// derived from it. Fig 14 and Fig 18 columns follow instrument.Schemes(),
// so a scheme indexes its column.
func TestRunMatrixShape(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run")
	}
	m := refMatrix(t)
	if len(m.Benchmarks) != 16 {
		t.Fatalf("benchmarks = %d", len(m.Benchmarks))
	}
	for _, b := range m.Benchmarks {
		if len(m.Runs[b]) != 5 {
			t.Fatalf("%s: %d schemes", b, len(m.Runs[b]))
		}
		if len(m.Walls[b]) != 5 {
			t.Fatalf("%s: %d wall times", b, len(m.Walls[b]))
		}
	}

	f14, err := Fig14(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(f14.Rows) != 16 {
		t.Errorf("fig14 rows = %d", len(f14.Rows))
	}
	for _, row := range f14.Rows {
		if row.Values[instrument.Baseline] != 1.0 {
			t.Errorf("%s: baseline normalized to %v", row.Name, row.Values[instrument.Baseline])
		}
		for c, v := range row.Values {
			if v <= 0 || v > 20 {
				t.Errorf("%s/%s: implausible normalized time %v", row.Name, f14.Columns[c], v)
			}
		}
	}
	if f14.Geomean[instrument.AOS] <= 1.0 {
		t.Errorf("AOS geomean %v <= 1; overhead vanished", f14.Geomean[instrument.AOS])
	}
	if f14.Geomean[instrument.Watchdog] <= f14.Geomean[instrument.PA] {
		t.Error("Watchdog geomean below PA; ordering broken")
	}
	if !strings.Contains(f14.String(), "GEOMEAN") {
		t.Error("fig14 rendering missing geomean row")
	}

	f16, err := Fig16(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f16 {
		total := r.UnsignedLoad + r.UnsignedStore + r.SignedLoad + r.SignedStore
		if total <= 0 {
			t.Errorf("fig16 %s: empty access mix", r.Name)
		}
		if r.Name == "hmmer" {
			if share := (r.SignedLoad + r.SignedStore) / total; share < 0.7 {
				t.Errorf("hmmer signed share = %.2f, want high", share)
			}
		}
	}
	if Fig16String(f16) == "" {
		t.Error("empty fig16 rendering")
	}

	f17, err := Fig17(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f17 {
		if r.AccessesPerInst < 1.0 && r.AccessesPerInst != 0 {
			// Forwarding can push below 1.0 only slightly; a checked op
			// needs at least ~one access otherwise.
			if r.AccessesPerInst < 0.5 {
				t.Errorf("fig17 %s: accesses/op = %v", r.Name, r.AccessesPerInst)
			}
		}
		if r.BWBHitRate < 0 || r.BWBHitRate > 1 {
			t.Errorf("fig17 %s: hit rate %v", r.Name, r.BWBHitRate)
		}
	}
	if Fig17String(f17) == "" {
		t.Error("empty fig17 rendering")
	}

	f18, err := Fig18(m)
	if err != nil {
		t.Fatal(err)
	}
	if f18.Geomean[instrument.Watchdog] < 1.0 {
		t.Errorf("Watchdog traffic %v < baseline", f18.Geomean[instrument.Watchdog])
	}
	if !strings.Contains(f18.String(), "GEOMEAN") {
		t.Error("fig18 rendering missing geomean")
	}

	doc, err := MatrixDocument(m, refOptions(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Schema != MatrixSchema || len(doc.Benchmarks) != 16 {
		t.Errorf("doc shape: schema=%q benchmarks=%d", doc.Schema, len(doc.Benchmarks))
	}
	for _, b := range doc.Benchmarks {
		if len(b.Runs) != 5 {
			t.Fatalf("doc %s: %d runs", b.Name, len(b.Runs))
		}
		for _, r := range b.Runs {
			if r.Cycles == 0 || r.IPC <= 0 {
				t.Errorf("doc %s/%s: empty cells %+v", b.Name, r.Scheme, r)
			}
		}
	}
	out, err := doc.JSON()
	if err != nil || !strings.Contains(string(out), "geomean_time") {
		t.Errorf("doc JSON: %v", err)
	}
}

// TestMatrixParallelEquivalence is the -j 1 vs -j N determinism contract:
// identical Matrix contents (modulo wall times) and byte-identical
// rendered figures.
func TestMatrixParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("two matrix runs")
	}
	par := refMatrix(t)
	o := refOptions()
	o.Workers = 1
	seq, err := RunMatrix(o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Benchmarks, par.Benchmarks) {
		t.Fatalf("benchmark order differs: %v vs %v", seq.Benchmarks, par.Benchmarks)
	}
	if !reflect.DeepEqual(seq.Runs, par.Runs) {
		for _, b := range seq.Benchmarks {
			for _, s := range instrument.Schemes() {
				if !reflect.DeepEqual(seq.Runs[b][s], par.Runs[b][s]) {
					t.Errorf("%s/%v diverges:\n  -j1: %+v\n  -j4: %+v", b, s, seq.Runs[b][s], par.Runs[b][s])
				}
			}
		}
		t.Fatal("matrix contents differ between -j 1 and -j 4")
	}
	f14seq, err := Fig14(seq)
	if err != nil {
		t.Fatal(err)
	}
	f14par, err := Fig14(par)
	if err != nil {
		t.Fatal(err)
	}
	if f14seq.String() != f14par.String() {
		t.Error("rendered Fig 14 differs between -j 1 and -j 4")
	}
	f18seq, _ := Fig18(seq)
	f18par, _ := Fig18(par)
	if f18seq.CSV() != f18par.CSV() {
		t.Error("Fig 18 CSV differs between -j 1 and -j 4")
	}
}

// TestMatrixFailureInjection proves one failed job doesn't discard the
// other jobs' results.
func TestMatrixFailureInjection(t *testing.T) {
	boom := errors.New("injected failure")
	orig := runJob
	runJob = func(c Cell, o Options) (Summary, error) {
		if c.Profile.Name == "gcc" && c.Scheme == instrument.AOS {
			return Summary{}, boom
		}
		return orig(c, o)
	}
	defer func() { runJob = orig }()

	o := Options{Instructions: 8_000, Seed: 1, Workers: 4}
	m, err := RunMatrix(o)
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected failure", err)
	}
	if m == nil {
		t.Fatal("matrix discarded on job failure")
	}
	if len(m.Errors) != 1 || m.Errors[0].Cell.Profile.Name != "gcc" || m.Errors[0].Cell.Scheme != instrument.AOS {
		t.Fatalf("errors = %+v", m.Errors)
	}
	if _, ok := m.Runs["gcc"][instrument.AOS]; ok {
		t.Error("failed job left a result behind")
	}
	// Every other job's result must have survived.
	for _, b := range m.Benchmarks {
		want := 5
		if b == "gcc" {
			want = 4
		}
		if len(m.Runs[b]) != want {
			t.Errorf("%s: %d surviving runs, want %d", b, len(m.Runs[b]), want)
		}
	}
	// The figure derivations refuse the incomplete matrix rather than
	// emitting NaN/Inf rows.
	if _, err := Fig16(m); err == nil {
		t.Error("Fig16 accepted a matrix with a missing AOS run")
	}
	if _, err := Fig17(m); err == nil {
		t.Error("Fig17 accepted a matrix with a missing AOS run")
	}
}

// TestFigGuards exercises the NaN/Inf guards directly on a hand-built
// matrix with a missing and a zero-cycle baseline.
func TestFigGuards(t *testing.T) {
	m := &Matrix{
		Benchmarks: []string{"fake"},
		Runs:       map[string]map[instrument.Scheme]Summary{"fake": {}},
	}
	if _, err := Fig14(m); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("Fig14 missing-baseline guard: %v", err)
	}
	if _, err := Fig18(m); err == nil {
		t.Errorf("Fig18 missing-baseline guard: %v", err)
	}
	for _, s := range instrument.Schemes() {
		m.Runs["fake"][s] = Summary{} // present but zero cycles/traffic
	}
	if _, err := Fig14(m); err == nil || !strings.Contains(err.Error(), "zero cycles") {
		t.Errorf("Fig14 zero-cycle guard: %v", err)
	}
	if _, err := Fig18(m); err == nil || !strings.Contains(err.Error(), "zero traffic") {
		t.Errorf("Fig18 zero-traffic guard: %v", err)
	}
	if _, err := Fig16(m); err == nil || !strings.Contains(err.Error(), "zero instructions") {
		t.Errorf("Fig16 zero-total guard: %v", err)
	}
	if _, err := MatrixDocument(m, Options{}, 0); err == nil {
		t.Error("MatrixDocument accepted a degenerate matrix")
	}
}

func TestFig11(t *testing.T) {
	r, err := Fig11(60_000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Mallocs != 60_000 || r.Space != 65536 {
		t.Errorf("shape: %+v", r)
	}
	// ~60k PACs over 64k buckets: avg ≈ 0.92, good spread.
	if r.Summary.Avg < 0.8 || r.Summary.Avg > 1.0 {
		t.Errorf("avg occurrences = %v", r.Summary.Avg)
	}
	if r.Distinct < 30_000 {
		t.Errorf("distinct PACs = %d; distribution collapsed", r.Distinct)
	}
	if r.Summary.Max > 30 {
		t.Errorf("max occurrences = %d; badly skewed", r.Summary.Max)
	}
	if r.String() == "" {
		t.Error("empty rendering")
	}
	for _, n := range []int{0, -5} {
		if _, err := Fig11(n); err == nil {
			t.Errorf("Fig11(%d) accepted a run with no mallocs", n)
		}
	}
}

func TestMemProfilesSpec(t *testing.T) {
	rows, err := MemProfiles("spec", 500, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]workload.MemoryProfileResult{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// Small-count rows are unaffected by scaling and must match exactly.
	if r := byName["mcf"]; r.Allocs != 8 || r.Frees != 8 || r.MaxLive != 6 {
		t.Errorf("mcf row = %+v", r)
	}
	if r := byName["lbm"]; r.Allocs != 7 || r.MaxLive != 5 {
		t.Errorf("lbm row = %+v", r)
	}
	// Parallel replay must preserve the profile order and contents.
	par, err := MemProfiles("spec", 500, Options{Instructions: 15_000, Seed: 1, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, par) {
		t.Error("memory profiles differ between -j 1 and -j 8")
	}
	out := MemProfilesString("Table II", rows, workload.SPEC(), 500)
	if !strings.Contains(out, "mcf") || !strings.Contains(out, "paper alloc") {
		t.Error("rendering incomplete")
	}
	if _, err := MemProfiles("bogus", 1, tinyOpts()); err == nil {
		t.Error("accepted unknown profile set")
	}
}

func TestTable1(t *testing.T) {
	if len(Table1()) != 4 {
		t.Error("Table I rows")
	}
	if !strings.Contains(Table1String(), "MCQ") {
		t.Error("rendering missing MCQ")
	}
}

func TestFig15SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	o := tinyOpts()
	o.Workers = 8
	r, err := Fig15(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 16 {
		t.Fatalf("benchmarks = %d", len(r.Rows))
	}
	for c, label := range r.Columns {
		if r.Geomean[c] <= 0 {
			t.Errorf("%s geomean = %v", label, r.Geomean[c])
		}
	}
	// Both optimizations together must not be worse than none.
	none := r.Geomean[slices.Index(r.Columns, "NoOptimization")]
	both := r.Geomean[slices.Index(r.Columns, "L1-B+BoundsCompression")]
	if both > none+0.02 {
		t.Errorf("optimizations hurt: both=%v none=%v", both, none)
	}
	if !strings.Contains(r.String(), "GEOMEAN") {
		t.Error("rendering missing geomean")
	}
	checkGolden(t, "fig15_15k.txt", r.String())
}

// TestProgressEvents checks that matrix runs emit per-job completions
// with monotone counts and job labels.
func TestProgressEvents(t *testing.T) {
	var events []Event
	o := Options{Instructions: 8_000, Seed: 1, Workers: 2}
	o.Progress = func(ev Event) { events = append(events, ev) }
	if _, err := MemProfiles("realworld", 500, o); err != nil {
		t.Fatal(err)
	}
	n := len(workload.RealWorld())
	if len(events) != n {
		t.Fatalf("events = %d, want %d", len(events), n)
	}
	for i, ev := range events {
		if ev.Completed != i+1 || ev.Total != n {
			t.Errorf("event %d: %d/%d", i, ev.Completed, ev.Total)
		}
		if !strings.HasPrefix(ev.Label, "memprofile: ") {
			t.Errorf("event %d label %q", i, ev.Label)
		}
	}
}
