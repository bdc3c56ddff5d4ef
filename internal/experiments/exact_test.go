package experiments

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"aos/internal/cpu"
	"aos/internal/instrument"
	"aos/internal/telemetry"
	"aos/internal/workload"
)

// runFullDetail is the reference exact strategy: the cell's set-up, its
// warmup and its measured region all run through the detailed timing
// model, and the statistics restart at the warmup boundary.
func runFullDetail(c Cell) (Summary, error) {
	p := c.Profile.Clone()
	p.Instructions = c.Instructions
	m, cc, err := c.Build()
	if err != nil {
		return Summary{}, err
	}
	m.SetBatch(emitBatch)
	r, err := workload.NewRunner(p, m, c.Seed)
	if err != nil {
		return Summary{}, err
	}
	ctx := context.Background()
	warmup := p.Instructions / 2
	total := p.Instructions + warmup
	if err := r.RunTo(ctx, warmup, total); err != nil {
		return Summary{}, err
	}
	m.Flush()
	cc.ResetStats()
	warm := m.Counts()
	if err := r.RunTo(ctx, total, total); err != nil {
		return Summary{}, err
	}
	m.Flush()
	return summarize(m, cc, warm), nil
}

// TestExactSetupFastForwardMatchesDetail: an exact cell that runs its
// set-up in fast-forward mode reports exactly what it reports with set-up
// in full detail, under every registered scheme, on the benchmarks with
// the heaviest set-up (omnetpp's mallocs, soplex's prefault) and on lbm.
// milc at 1,000 instructions warms up for fewer than one U segment, so its
// set-up stays detailed.
func TestExactSetupFastForwardMatchesDetail(t *testing.T) {
	var cells []Cell
	for _, b := range []string{"omnetpp", "soplex", "lbm"} {
		p := profile(t, b)
		for _, s := range instrument.AllSchemes() {
			for _, seed := range []int64{1, 3} {
				cells = append(cells, Cell{Profile: p, Scheme: s, Seed: seed, Instructions: 8_000})
			}
		}
	}
	cells = append(cells, Cell{Profile: profile(t, "milc"), Scheme: instrument.Baseline, Seed: 1, Instructions: 1_000})
	for _, c := range cells {
		t.Run(fmt.Sprintf("%v/seed%d/%d", c, c.Seed, c.Instructions), func(t *testing.T) {
			t.Parallel()
			got, err := c.Run(Options{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := runFullDetail(c)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("fast-forwarded set-up diverges from full detail:\n  got:  %+v\n  want: %+v", got, want)
			}
		})
	}
}

// checkWindowIPC fails when a telemetry window reports more instructions
// per cycle than the core can commit: instructions consumed outside
// detailed mode leaked into it.
func checkWindowIPC(t *testing.T, tl *telemetry.Timeline) {
	t.Helper()
	limit := uint64(1000 * cpu.DefaultConfig().Width)
	for i := range tl.Samples() {
		v, err := tl.Value(i, "cpu_ipc_milli")
		if err != nil {
			t.Fatal(err)
		}
		if v > limit {
			t.Errorf("sample %d: cpu_ipc_milli = %d, above the commit width's %d", i, v, limit)
		}
	}
}

// TestExactTimelineSlices: an exact cell that fast-forwards its set-up
// marks it on the timeline with one sim/fastforward slice carrying the
// instructions the core consumed in set-up, followed by one sim/detailed
// slice, and no window counts the set-up's instructions; a cell without
// warmup runs everything in detail and records no mode slices.
func TestExactTimelineSlices(t *testing.T) {
	c := Cell{Profile: profile(t, "gcc"), Scheme: instrument.AOS, Seed: 1, Instructions: 20_000}
	p := c.Profile.Clone()
	p.Instructions = c.Instructions
	m, cc, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.NewRunner(p, m, c.Seed); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	setup := cc.Insts()

	record := func(c Cell) *telemetry.Timeline {
		var tl *telemetry.Timeline
		o := Options{TelemetryInterval: 1024}
		o.OnTimeline = func(_ string, _ instrument.Scheme, got *telemetry.Timeline) { tl = got }
		if _, err := c.Run(o); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tl.WriteTraceEvents(&buf, c.String()); err != nil {
			t.Fatal(err)
		}
		if _, err := telemetry.ValidateTraceJSON(buf.Bytes()); err != nil {
			t.Fatalf("%v: trace rejected by validator: %v", c, err)
		}
		checkWindowIPC(t, tl)
		return tl
	}

	var names []string
	var ffInsts uint64
	for _, s := range record(c).Slices() {
		if strings.HasPrefix(s.Name, "sim/") {
			names = append(names, s.Name)
		}
		if s.Name == "sim/fastforward" {
			ffInsts = s.Args["insts"]
		}
	}
	if want := []string{"sim/fastforward", "sim/detailed"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("mode slices = %v, want %v", names, want)
	}
	if ffInsts != setup {
		t.Errorf("sim/fastforward insts = %d, want the %d set-up instructions", ffInsts, setup)
	}

	c.NoWarmup = true
	for _, s := range record(c).Slices() {
		if strings.HasPrefix(s.Name, "sim/") {
			t.Errorf("no-warmup cell recorded mode slice %s", s.Name)
		}
	}
}
