package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"

	"aos/internal/cpu"
	"aos/internal/instrument"
	"aos/internal/sampling"
	"aos/internal/telemetry"
	"aos/internal/workload"
)

func profile(t *testing.T, name string) *workload.Profile {
	t.Helper()
	p, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("no %s profile", name)
	}
	return p
}

// TestCellWarmupBoundary: a cell's statistics restart half a budget in,
// so its timing result and its instruction counts cover the same measured
// region, while the heap covers the whole run. A no-warmup cell over the
// same stream (warmup plus budget) measures all of it.
func TestCellWarmupBoundary(t *testing.T) {
	p := profile(t, "sjeng")
	warm, err := Cell{Profile: p, Scheme: instrument.Baseline, Instructions: 10_000}.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	whole, err := Cell{Profile: p, Scheme: instrument.Baseline, Instructions: 15_000, NoWarmup: true}.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Counts.Total == 0 {
		t.Fatal("no instructions measured after warmup")
	}
	if warm.Counts.Total >= whole.Counts.Total || warm.CPU.Cycles >= whole.CPU.Cycles {
		t.Errorf("warmup boundary never reset statistics: measured %d insts / %d cycles of %d / %d",
			warm.Counts.Total, warm.CPU.Cycles, whole.Counts.Total, whole.CPU.Cycles)
	}
	for _, s := range []Summary{warm, whole} {
		if s.CPU.Insts != s.Counts.Total {
			t.Errorf("timing core measured %d insts, counts %d", s.CPU.Insts, s.Counts.Total)
		}
	}
	if warm.Heap != whole.Heap {
		t.Errorf("heap stats differ over the same stream: %+v vs %+v", warm.Heap, whole.Heap)
	}
}

// TestAblationCellsSampled: ablation cells run under the same strategy as
// every other cell. Sampled, a cell that sets the MCQ depth explicitly to
// Table IV's default reports the default cell's cycles; a non-default
// cell never restores the default cell's checkpoints, and it delivers
// telemetry.
func TestAblationCellsSampled(t *testing.T) {
	def := Cell{Profile: profile(t, "hmmer"), Scheme: instrument.AOS, Instructions: 100_000}
	explicit := def
	explicit.MCQSize = cpu.DefaultConfig().MCQSize
	o := Options{Sampling: &sampling.Schedule{}}
	a, err := def.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := explicit.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if a.CPU.Cycles != b.CPU.Cycles {
		t.Errorf("explicit default MCQ: %d cycles, default cell %d", b.CPU.Cycles, a.CPU.Cycles)
	}
	if v := explicit.variant(); v != "" {
		t.Errorf("explicit default MCQ has checkpoint variant %q, want the default cell's", v)
	}

	o.checkpoints = sampling.NewStore()
	if _, err := def.Run(o); err != nil {
		t.Fatal(err)
	}
	mcq := def
	mcq.MCQSize = 12
	if v := mcq.variant(); !strings.Contains(v, "mcq=12") {
		t.Errorf("MCQ=12 checkpoint variant %q does not name the setting", v)
	}
	var tl *telemetry.Timeline
	o.TelemetryInterval = 4096
	o.OnTimeline = func(_ string, _ instrument.Scheme, got *telemetry.Timeline) { tl = got }
	if _, err := mcq.Run(o); err != nil {
		t.Fatal(err)
	}
	if hits, _, _ := o.checkpoints.Stats(); hits != 0 {
		t.Errorf("MCQ=12 cell restored %d checkpoints of the default cell", hits)
	}
	if tl == nil || len(tl.Samples()) == 0 {
		t.Error("MCQ=12 cell delivered no telemetry")
	}
}

// TestAblationCellCanceled: a cell with a non-default machine stops on a
// canceled context like every other cell.
func TestAblationCellCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := Cell{Profile: profile(t, "hmmer"), Scheme: instrument.AOS, Instructions: 100_000, MCQSize: 12}
	if _, err := c.Run(Options{Context: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
