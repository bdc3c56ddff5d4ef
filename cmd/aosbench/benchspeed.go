package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"aos"
	"aos/internal/experiments"
	"aos/internal/sampling"
)

// The -benchspeed harness measures the simulator itself: raw simulation
// throughput (sim-insts/s) and heap allocations per simulated instruction
// on a fixed workload/scheme pair, plus the effective throughput of the
// SMARTS sampled mode (checkpoint-resumed runs where only the measurement
// windows pay detailed-model cost). It writes a machine-readable document
// for CI trending and optionally gates on the allocation figure and the
// effective-speedup ratio, which — unlike absolute wall time — are safe
// to fail a build on (allocations are hardware-independent; the speedup
// is a ratio of two walls on the same machine).

// simspeedSchema versions the BENCH_simspeed.json layout. v2 adds the
// "sampled" block and the top-level effective_insts_per_sec /
// effective_speedup trend figures; v3 adds the cold sampled run's
// checkpoint count and store size.
const simspeedSchema = "aosbench/simspeed/v3"

type simspeedRun struct {
	Insts         uint64  `json:"insts"`
	WallNS        int64   `json:"wall_ns"`
	InstsPerSec   float64 `json:"insts_per_sec"`
	Allocs        uint64  `json:"allocs"`
	AllocsPerInst float64 `json:"allocs_per_inst"`
	AllocBytes    uint64  `json:"alloc_bytes"`
}

// simspeedSampledRun is one timed sampled-mode run. The first run is cold
// (it fast-forwards to every window boundary and to the end of the run,
// and populates the checkpoint store); later runs resume from the store
// and pay only the detailed windows plus one restore per boundary.
type simspeedSampledRun struct {
	Resumed              bool    `json:"resumed"`
	WallNS               int64   `json:"wall_ns"`
	EffectiveInstsPerSec float64 `json:"effective_insts_per_sec"`
}

// simspeedSampled records the sampled-mode measurement: the normalized
// U/W/F schedule, the per-run effective throughput, and what the cold
// run's checkpoints hold. "Effective" counts the measured region's
// instructions (the same basis as the exact runs' insts_per_sec) against
// the sampled wall, so the ratio of the two is the sampled mode's
// real-time speedup. StoreMiB is the live Go heap's growth across the
// cold run, each side read after a collection: the checkpoint store it
// filled.
type simspeedSampled struct {
	Insts         uint64               `json:"insts"`
	Warmup        uint64               `json:"warmup"`
	Windows       int                  `json:"windows"`
	Detail        uint64               `json:"detail"`
	Window        uint64               `json:"window"`
	Gap           uint64               `json:"gap"`
	DetailedInsts uint64               `json:"detailed_insts"`
	Checkpoints   int                  `json:"checkpoints"`
	StoreMiB      float64              `json:"store_mib"`
	Runs          []simspeedSampledRun `json:"runs"`
	BestEffective float64              `json:"best_effective_insts_per_sec"`
}

type simspeedDoc struct {
	Schema    string        `json:"schema"`
	Benchmark string        `json:"benchmark"`
	Scheme    string        `json:"scheme"`
	GoVersion string        `json:"go_version"`
	GOOS      string        `json:"goos"`
	GOARCH    string        `json:"goarch"`
	Runs      []simspeedRun `json:"runs"`
	// Best-of-runs figures: the trend lines CI cares about. Throughput
	// takes the max (least-disturbed run), allocations the min (steady
	// state with the fewest one-off growths).
	BestInstsPerSec  float64          `json:"best_insts_per_sec"`
	MinAllocsPerInst float64          `json:"min_allocs_per_inst"`
	Sampled          *simspeedSampled `json:"sampled,omitempty"`
	// EffectiveInstsPerSec is the best checkpoint-resumed sampled run's
	// effective throughput; EffectiveSpeedup is its ratio over
	// BestInstsPerSec (the headline "10-50x" figure).
	EffectiveInstsPerSec float64 `json:"effective_insts_per_sec"`
	EffectiveSpeedup     float64 `json:"effective_speedup"`
}

// benchSampled measures the sampled mode's effective throughput. The
// sampled region is 64x the exact measurement's budget: a resumed run
// restores every window's post-warm-up state and the end of the run, so
// its wall is its measurement windows plus windows+1 restores, whatever
// the gaps between them — a longer region is where sampling's advantage
// actually lives. Exact runs of that length would just take 64x longer at
// the same rate, so the per-second figures stay directly comparable.
func benchSampled(insts uint64, runs int) (*simspeedSampled, error) {
	spec := experiments.SimSpec{
		Benchmark: "milc", Scheme: "AOS", Instructions: 64 * insts, Seed: 1,
		Sampling: &experiments.SamplingSpec{Windows: 16},
	}
	ns, err := spec.Normalize()
	if err != nil {
		return nil, fmt.Errorf("benchspeed: %w", err)
	}
	sm := simspeedSampled{
		Insts:   ns.Instructions,
		Warmup:  ns.Instructions / 2,
		Windows: ns.Sampling.Windows,
		Detail:  ns.Sampling.Detail,
		Window:  ns.Sampling.Window,
		Gap:     ns.Sampling.Gap,
	}
	// The schedule's detailed instructions, U and W, which the cold run
	// simulates; a resumed run simulates Windows×Window of them.
	sm.DetailedInsts = uint64(sm.Windows) * (sm.Detail + sm.Window)
	store := sampling.NewStore()
	heap0 := liveHeap()
	for i := 0; i <= runs; i++ { // run 0 is cold and excluded from BestEffective
		start := time.Now() //aoslint:allow detrand — wall measurement harness; results never feed a figure
		_, _, err := experiments.RunSpecFull(context.Background(), spec, experiments.RunConfig{Checkpoints: store})
		wall := time.Since(start) //aoslint:allow detrand — see above
		if err != nil {
			return nil, fmt.Errorf("benchspeed: sampled run: %w", err)
		}
		if i == 0 {
			sm.StoreMiB = float64(liveHeap()-heap0) / (1 << 20)
			_, _, sm.Checkpoints = store.Stats()
		}
		run := simspeedSampledRun{Resumed: i > 0, WallNS: wall.Nanoseconds()}
		if wall > 0 {
			run.EffectiveInstsPerSec = float64(sm.Insts) / wall.Seconds()
		}
		sm.Runs = append(sm.Runs, run)
		if run.Resumed && run.EffectiveInstsPerSec > sm.BestEffective {
			sm.BestEffective = run.EffectiveInstsPerSec
		}
		mode := "resumed"
		if !run.Resumed {
			mode = "cold"
		}
		fmt.Printf("benchspeed: sampled run %d/%d (%s): %d insts in %v (%.0f effective insts/s)\n",
			i+1, runs+1, mode, sm.Insts, wall.Round(time.Millisecond), run.EffectiveInstsPerSec)
	}
	fmt.Printf("benchspeed: the cold sampled run stored %d checkpoints in %.1f MiB\n", sm.Checkpoints, sm.StoreMiB)
	return &sm, nil
}

// liveHeap returns the Go heap's live bytes after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// benchSpeed runs the throughput harness and writes the JSON document.
// A non-negative maxAllocsPerInst turns the allocation figure into a
// gate: exceeding it returns an error (CI exits nonzero). A non-negative
// minEffectiveSpeedup likewise gates on the sampled mode's effective
// speedup over the exact path.
func benchSpeed(insts uint64, runs int, out string, maxAllocsPerInst, minEffectiveSpeedup float64) error {
	if insts == 0 {
		insts = 300_000
	}
	if runs <= 0 {
		runs = 3
	}
	const benchmark, scheme = "milc", "AOS"
	w, ok := aos.WorkloadByName(benchmark)
	if !ok {
		return fmt.Errorf("benchspeed: workload %q not found", benchmark)
	}
	doc := simspeedDoc{
		Schema:    simspeedSchema,
		Benchmark: benchmark,
		Scheme:    scheme,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now() //aoslint:allow detrand — the harness's whole purpose is wall measurement; results never feed a figure
		r, err := aos.Run(w, aos.Options{Scheme: aos.AOS, Instructions: insts, NoWarmup: true})
		wall := time.Since(start) //aoslint:allow detrand — see above
		if err != nil {
			return fmt.Errorf("benchspeed: %w", err)
		}
		runtime.ReadMemStats(&after)
		run := simspeedRun{
			Insts:      r.Insts,
			WallNS:     wall.Nanoseconds(),
			Allocs:     after.Mallocs - before.Mallocs,
			AllocBytes: after.TotalAlloc - before.TotalAlloc,
		}
		if wall > 0 {
			run.InstsPerSec = float64(r.Insts) / wall.Seconds()
		}
		if r.Insts > 0 {
			run.AllocsPerInst = float64(run.Allocs) / float64(r.Insts)
		}
		doc.Runs = append(doc.Runs, run)
		if run.InstsPerSec > doc.BestInstsPerSec {
			doc.BestInstsPerSec = run.InstsPerSec
		}
		if i == 0 || run.AllocsPerInst < doc.MinAllocsPerInst {
			doc.MinAllocsPerInst = run.AllocsPerInst
		}
		fmt.Printf("benchspeed: run %d/%d: %d insts in %v (%.0f insts/s, %.4f allocs/inst)\n",
			i+1, runs, r.Insts, wall.Round(time.Millisecond), run.InstsPerSec, run.AllocsPerInst)
	}
	sampled, err := benchSampled(insts, runs)
	if err != nil {
		return err
	}
	doc.Sampled = sampled
	doc.EffectiveInstsPerSec = sampled.BestEffective
	if doc.BestInstsPerSec > 0 {
		doc.EffectiveSpeedup = sampled.BestEffective / doc.BestInstsPerSec
	}

	payload, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return err
	}
	payload = append(payload, '\n')
	if err := os.WriteFile(out, payload, 0o644); err != nil {
		return err
	}
	fmt.Printf("benchspeed: best %.0f sim-insts/s, min %.4f allocs/inst, %.0f effective insts/s (%.1fx) -> %s\n",
		doc.BestInstsPerSec, doc.MinAllocsPerInst, doc.EffectiveInstsPerSec, doc.EffectiveSpeedup, out)
	if maxAllocsPerInst >= 0 && doc.MinAllocsPerInst > maxAllocsPerInst {
		return fmt.Errorf("benchspeed: allocation regression: %.4f allocs/inst exceeds budget %.4f",
			doc.MinAllocsPerInst, maxAllocsPerInst)
	}
	if minEffectiveSpeedup >= 0 && doc.EffectiveSpeedup < minEffectiveSpeedup {
		return fmt.Errorf("benchspeed: sampling regression: effective speedup %.1fx below floor %.1fx",
			doc.EffectiveSpeedup, minEffectiveSpeedup)
	}
	return nil
}
