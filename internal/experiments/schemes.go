package experiments

import (
	"fmt"

	"aos/internal/instrument"
	"aos/internal/runner"
	"aos/internal/stats"
	"aos/internal/workload"
)

// SchemeOverheadResult is the all-scheme overhead comparison: execution
// time normalized to Baseline for every registered scheme, paper and
// non-paper backends alike.
type SchemeOverheadResult struct {
	Rows    []Fig14Row
	Geomean map[instrument.Scheme]float64
}

// SchemeOverhead runs the overhead matrix over every registered scheme —
// the paper's five plus the MTE and hardened-allocator backends — and
// reports execution time normalized to Baseline. Fig 14/18 keep their
// five-scheme paper shape; this is the extended comparison the scheme
// registry makes cheap.
func SchemeOverhead(o Options) (*SchemeOverheadResult, error) {
	profiles := workload.SPEC()
	var specs []JobSpec
	var jobs []runner.Job[Summary]
	for _, p := range profiles {
		for _, s := range instrument.AllSchemes() {
			c := o.cell(p, s)
			spec := JobSpec{Benchmark: p.Name, Scheme: s}
			specs = append(specs, spec)
			jobs = append(jobs, runner.Job[Summary]{
				Label: "schemes: " + spec.String(),
				Run:   func() (Summary, error) { return runJob(c, o) },
			})
		}
	}
	results := runner.Run(o.ctx(), jobs, o.runnerOptions())

	runs := make(map[string]map[instrument.Scheme]Summary)
	for _, p := range profiles {
		runs[p.Name] = make(map[instrument.Scheme]Summary)
	}
	for i, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("schemes: %s: %w", specs[i], r.Err)
		}
		runs[specs[i].Benchmark][specs[i].Scheme] = r.Value
	}

	res := &SchemeOverheadResult{Geomean: make(map[instrument.Scheme]float64)}
	series := make(map[instrument.Scheme][]float64)
	for _, p := range profiles {
		base := float64(runs[p.Name][instrument.Baseline].CPU.Cycles)
		if base == 0 {
			return nil, fmt.Errorf("schemes: %s: Baseline run has zero cycles; cannot normalize", p.Name)
		}
		row := Fig14Row{Name: p.Name, Normalized: make(map[instrument.Scheme]float64)}
		for _, s := range instrument.AllSchemes() {
			n := float64(runs[p.Name][s].CPU.Cycles) / base
			row.Normalized[s] = n
			if s != instrument.Baseline {
				series[s] = append(series[s], n)
			}
		}
		res.Rows = append(res.Rows, row)
	}
	for s, xs := range series {
		res.Geomean[s] = stats.Geomean(xs)
	}
	return res, nil
}

// String renders the comparison as a table.
func (r *SchemeOverheadResult) String() string {
	t := stats.NewTable("benchmark", "Watchdog", "PA", "AOS", "PA+AOS", "MTE", "Hardened")
	for _, row := range r.Rows {
		t.AddRow(row.Name,
			row.Normalized[instrument.Watchdog],
			row.Normalized[instrument.PA],
			row.Normalized[instrument.AOS],
			row.Normalized[instrument.PAAOS],
			row.Normalized[instrument.MTE],
			row.Normalized[instrument.HardenedAlloc])
	}
	t.AddRow("GEOMEAN",
		r.Geomean[instrument.Watchdog],
		r.Geomean[instrument.PA],
		r.Geomean[instrument.AOS],
		r.Geomean[instrument.PAAOS],
		r.Geomean[instrument.MTE],
		r.Geomean[instrument.HardenedAlloc])
	return "Scheme comparison: normalized execution time, all registered backends (baseline = 1.0)\n" + t.String()
}
