package sampling_test

import (
	"context"
	"testing"

	"aos/internal/core"
	"aos/internal/experiments"
	"aos/internal/instrument"
	"aos/internal/sampling"
	"aos/internal/workload"
)

// TestSampledEstimateTracksExact: on a steady-state workload the sampled
// estimate must land near the full-detail cycle count of the same
// simulation cell (the tight 2% matrix bound lives in the experiments
// error-bound test; this is the unit-level sanity version).
func TestSampledEstimateTracksExact(t *testing.T) {
	p, ok := workload.ByName("hmmer")
	if !ok {
		t.Fatal("no hmmer profile")
	}
	cell := experiments.Cell{Profile: p, Scheme: instrument.AOS, Seed: 7, Instructions: 120_000}
	sched, err := sampling.Schedule{Warmup: 60_000, Detail: 1_000, Window: 4_000, Windows: 4}.Normalize(cell.Instructions)
	if err != nil {
		t.Fatal(err)
	}
	m, c, err := cell.Build()
	if err != nil {
		t.Fatal(err)
	}
	m.SetBatch(core.EmitBatchSize)
	prof := p.Clone()
	prof.Instructions = cell.Instructions
	res, err := sampling.Run(context.Background(), prof, m, c, cell.Seed, sampling.Config{Schedule: sched})
	if err != nil {
		t.Fatal(err)
	}

	// Full-detail reference: the same cell, warmup then measure.
	exact, err := cell.Run(experiments.Options{})
	if err != nil {
		t.Fatal(err)
	}

	ratio := float64(res.Est.Cycles) / float64(exact.CPU.Cycles)
	if ratio < 0.90 || ratio > 1.10 {
		t.Fatalf("sampled cycles %d vs exact %d (ratio %.3f) outside 10%%", res.Est.Cycles, exact.CPU.Cycles, ratio)
	}
	if res.Est.TotalInsts != exact.CPU.Insts {
		t.Fatalf("sampled total insts %d != exact consumed insts %d", res.Est.TotalInsts, exact.CPU.Insts)
	}
}
