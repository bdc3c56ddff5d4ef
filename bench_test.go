package aos_test

// One benchmark per table and figure of the paper's evaluation. Each bench
// regenerates its experiment at a reduced instruction budget and reports
// the headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reprints the whole evaluation. The full-scale figures come from
// cmd/aosbench (see EXPERIMENTS.md).

import (
	"slices"
	"testing"

	"aos"
	"aos/internal/experiments"
	"aos/internal/instrument"
)

// benchOpts is the reduced budget used by the bench harness.
func benchOpts() experiments.Options {
	return experiments.Options{Instructions: 120_000, Seed: 1}
}

// BenchmarkFig11PACDistribution regenerates the §VI PAC-distribution
// microbenchmark (Fig 11): avg/max/min/stdev of PAC occurrences.
func BenchmarkFig11PACDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig11(200_000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Summary.Avg, "avg-occurrences")
		b.ReportMetric(float64(r.Summary.Max), "max-occurrences")
		b.ReportMetric(r.Summary.Stdev, "stdev")
	}
}

// BenchmarkTable1HardwareOverhead regenerates Table I (CACTI-like model).
func BenchmarkTable1HardwareOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1()
		b.ReportMetric(rows[0].AreaMM2, "mcq-area-mm2")
		b.ReportMetric(rows[2].AreaMM2, "l1b-area-mm2")
		b.ReportMetric(rows[3].AreaMM2, "l1d-area-mm2")
	}
}

// BenchmarkTable2MemoryProfiles regenerates Table II at 1/200 scale.
func BenchmarkTable2MemoryProfiles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.MemProfiles("spec", 200, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		var allocs uint64
		for _, r := range rows {
			allocs += r.Allocs
		}
		b.ReportMetric(float64(allocs), "total-allocs")
	}
}

// BenchmarkTable3RealWorldProfiles regenerates Table III at 1/200 scale.
func BenchmarkTable3RealWorldProfiles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.MemProfiles("realworld", 200, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(rows)), "benchmarks")
	}
}

// BenchmarkFig14ExecutionTime regenerates the headline figure: geomean
// normalized execution time per scheme across the 16 SPEC profiles.
func BenchmarkFig14ExecutionTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := experiments.RunMatrix(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		f, err := experiments.Fig14(m)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Geomean[instrument.Watchdog], "watchdog-geomean")
		b.ReportMetric(f.Geomean[instrument.PA], "pa-geomean")
		b.ReportMetric(f.Geomean[instrument.AOS], "aos-geomean")
		b.ReportMetric(f.Geomean[instrument.PAAOS], "pa+aos-geomean")
	}
}

// BenchmarkFig15Optimizations regenerates the L1-B / bounds-compression
// ablation geomeans.
func BenchmarkFig15Optimizations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig15(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Geomean[slices.Index(r.Columns, "NoOptimization")], "no-opt-geomean")
		b.ReportMetric(r.Geomean[slices.Index(r.Columns, "L1-B+BoundsCompression")], "both-opts-geomean")
	}
}

// BenchmarkFig16InstructionStats regenerates the instruction-mix figure and
// reports hmmer's signed-access share (the paper's >99% callout).
func BenchmarkFig16InstructionStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := experiments.RunMatrix(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		rows, err := experiments.Fig16(m)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rows {
			if row.Name == "hmmer" {
				signed := row.SignedLoad + row.SignedStore
				total := signed + row.UnsignedLoad + row.UnsignedStore
				b.ReportMetric(signed/total, "hmmer-signed-share")
			}
		}
	}
}

// BenchmarkFig17BoundsAccesses regenerates the accesses-per-checked-op and
// BWB hit-rate figure.
func BenchmarkFig17BoundsAccesses(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := experiments.RunMatrix(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		rows, err := experiments.Fig17(m)
		if err != nil {
			b.Fatal(err)
		}
		var acc, hit float64
		var worst float64
		for _, r := range rows {
			acc += r.AccessesPerInst
			hit += r.BWBHitRate
			if r.AccessesPerInst > worst {
				worst = r.AccessesPerInst
			}
		}
		b.ReportMetric(acc/float64(len(rows)), "avg-accesses-per-op")
		b.ReportMetric(hit/float64(len(rows)), "avg-bwb-hitrate")
		b.ReportMetric(worst, "max-accesses-per-op")
	}
}

// BenchmarkFig18NetworkTraffic regenerates the traffic figure geomeans.
func BenchmarkFig18NetworkTraffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := experiments.RunMatrix(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		f, err := experiments.Fig18(m)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Geomean[instrument.Watchdog], "watchdog-traffic")
		b.ReportMetric(f.Geomean[instrument.PAAOS], "pa+aos-traffic")
	}
}

// BenchmarkResizeStudy regenerates the §IX-A.1 gradual-resizing study.
func BenchmarkResizeStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.ResizeStudy(experiments.Options{Instructions: 60_000, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.ForcedResizes), "stress-resizes")
		b.ReportMetric(r.OverheadVsPresized, "vs-presized")
	}
}

// BenchmarkAblations regenerates the beyond-the-paper design-choice sweeps.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Ablations(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		// Rows are gcc, hmmer and omnetpp, in that order.
		b.ReportMetric(r.Rows[0].Values[slices.Index(r.Columns, "no BWB")], "gcc-no-bwb")
		b.ReportMetric(r.Rows[1].Values[slices.Index(r.Columns, "MCQ=12")], "hmmer-mcq12")
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed (the
// engineering metric for the harness itself).
func BenchmarkSimulatorThroughput(b *testing.B) {
	w, _ := aos.WorkloadByName("milc")
	b.ReportAllocs()
	var insts uint64
	for i := 0; i < b.N; i++ {
		r, err := aos.Run(w, aos.Options{Scheme: aos.AOS, Instructions: 100_000, NoWarmup: true})
		if err != nil {
			b.Fatal(err)
		}
		insts += r.Insts
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "sim-insts/s")
}
