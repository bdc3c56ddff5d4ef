package service

import (
	"context"
	"net/http"
	"sync/atomic"
	"testing"

	"aos/internal/experiments"
	"aos/internal/telemetry"
)

// TestResultsSampledQuery drives the sampled-simulation path end to end:
// sample_* query params become a normalized Sampling block on the spec,
// the job runs with no checkpoint store (the result cache, not a store,
// answers its repeat), and the sampled cell is cached at its own address
// (distinct from exact runs).
func TestResultsSampledQuery(t *testing.T) {
	var specs atomic.Int64
	var lastSpec atomic.Pointer[experiments.SimSpec]
	stubRunSpecFull(t, func(ctx context.Context, spec experiments.SimSpec, cfg experiments.RunConfig) (*experiments.SimResult, *telemetry.Timeline, error) {
		specs.Add(1)
		lastSpec.Store(&spec)
		if cfg.Checkpoints != nil {
			t.Error("job ran with a checkpoint store")
		}
		return experiments.RunSpecFull(ctx, spec, cfg)
	})
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	const url = "/v1/results?benchmark=mcf&scheme=AOS&insts=60000&sample=1&sample_windows=4&sample_detail=1000&sample_window=4000"
	resp, err := http.Get(ts.URL + url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sampled results status = %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("X-Cache = %q, want miss", resp.Header.Get("X-Cache"))
	}
	spec := lastSpec.Load()
	if spec == nil || spec.Sampling == nil {
		t.Fatalf("job spec lost the sampling block: %+v", spec)
	}
	if spec.Sampling.Windows != 4 || spec.Sampling.Detail != 1_000 ||
		spec.Sampling.Window != 4_000 || spec.Sampling.Gap == 0 {
		t.Fatalf("sampling block not normalized from query: %+v", spec.Sampling)
	}

	// Same query again: served from cache, one simulation in total.
	resp2, err := http.Get(ts.URL + url)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("repeat X-Cache = %q, want hit", resp2.Header.Get("X-Cache"))
	}
	if specs.Load() != 1 {
		t.Fatalf("repeat sampled query re-ran the simulation (%d runs)", specs.Load())
	}

	// The exact cell is a different address: dropping sample params must
	// miss the cache and run a fresh (exact) simulation.
	resp3, err := http.Get(ts.URL + "/v1/results?benchmark=mcf&scheme=AOS&insts=60000")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.Header.Get("X-Cache") != "miss" {
		t.Fatalf("exact X-Cache = %q, want miss", resp3.Header.Get("X-Cache"))
	}
	if spec := lastSpec.Load(); spec.Sampling != nil {
		t.Fatalf("exact query carried a sampling block: %+v", spec.Sampling)
	}
}
