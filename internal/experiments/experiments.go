// Package experiments implements the paper's evaluation: one function per
// table and figure, each returning a typed result with a paper-style text
// rendering. cmd/aosbench and the top-level benchmarks are thin wrappers
// over this package.
//
// Matrix-style experiments (the 16-benchmark x 5-scheme evaluation behind
// Fig 14/16/17/18, the Fig 15 ablation, the resize study, the ablations and
// the all-scheme comparison) declare their Cells and fan them out through
// runCells over internal/runner's bounded worker pool. Every Cell builds
// its own core.Machine + cpu.Core and seeds its own RNG, so runs share no
// mutable state and Options.Workers only changes wall-clock time: 1-worker
// and N-worker runs produce byte-identical tables. A Memo carried across
// calls runs each distinct cell once. Every baseline-normalized result is
// a Table built by normalize.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"aos/internal/heap"
	"aos/internal/hwmodel"
	"aos/internal/instrument"
	"aos/internal/kernel"
	"aos/internal/mem"
	"aos/internal/pa"
	"aos/internal/qarma"
	"aos/internal/runner"
	"aos/internal/sampling"
	"aos/internal/stats"
	"aos/internal/telemetry"
	"aos/internal/workload"
)

// Event is a structured progress update (re-exported from runner): per-job
// completions carry Completed/Total and wall time, stage announcements
// carry only a Label.
type Event = runner.Event

// Options scales the experiments.
type Options struct {
	// Instructions overrides every profile's program-instruction budget
	// (0 keeps per-profile defaults). Benchmarks use small values; the
	// full harness uses the defaults.
	Instructions uint64
	// Seed drives the deterministic workload generators.
	Seed int64
	// Workers bounds the parallel jobs for matrix-style experiments
	// (<= 0 uses runtime.GOMAXPROCS). Results are independent of the
	// worker count.
	Workers int
	// Progress, when non-nil, receives structured progress events.
	Progress func(Event)
	// Sanitize tees every job's instruction stream through the tracecheck
	// protocol verifier and fails the job on any violation.
	Sanitize bool
	// Context, when non-nil, cancels in-flight experiments: pool workers
	// observe it between jobs, and each job's emission loop polls it
	// mid-run, so a timeout or client abandon stops the whole matrix
	// promptly. Canceled jobs surface context errors in the usual per-job
	// error aggregation. Nil means context.Background().
	Context context.Context
	// TelemetryInterval, when nonzero, attaches the flight recorder to
	// every job: each run samples its probes every TelemetryInterval
	// commit cycles. Telemetry is passive — tables, figures and JSON
	// documents are byte-identical with it on or off (the sampled-vs-
	// unsampled equivalence test pins this) — so the switch only decides
	// whether timelines exist to hand to OnTimeline.
	TelemetryInterval uint64
	// OnTimeline receives each job's finished timeline when
	// TelemetryInterval is set. Jobs run on pool workers, so the
	// callback must be safe for concurrent use; it is invoked once per
	// successful run, after the run's last sample.
	OnTimeline func(benchmark string, scheme instrument.Scheme, tl *telemetry.Timeline)
	// Sampling, when non-nil, switches every job to SMARTS sampled
	// simulation with this U/W/F shape (the per-job warmup is derived
	// from the profile budget exactly as in exact mode). Cycle counts
	// become statistical estimates; architectural outputs stay exact.
	Sampling *sampling.Schedule
	// Memo, when non-nil, shares finished cells across the experiments
	// that carry it: runCells answers a cell the memo holds without
	// simulating it again. A hit delivers no timeline.
	Memo *Memo
	// JobID is the serving layer's correlation id for this run (empty
	// for batch invocations). Purely diagnostic: it is stamped onto
	// sanitizer verdicts so tracecheck violations in daemon logs join
	// the job's trail, and never influences results.
	JobID string

	// checkpoints, when non-nil alongside Sampling, resumes a sampled
	// cell from its window-boundary checkpoints and stores those it
	// lacks (RunConfig.Checkpoints). Ignored for sanitized runs: a
	// teeing protocol checker needs the uncut stream, so those sample
	// cold.
	checkpoints *sampling.Store
}

func (o Options) ctx() context.Context {
	if o.Context == nil {
		return context.Background()
	}
	return o.Context
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// announce emits a stage-announcement event (no Completed/Total).
func (o Options) announce(format string, args ...interface{}) {
	if o.Progress != nil {
		o.Progress(Event{Label: fmt.Sprintf(format, args...)})
	}
}

func (o Options) runnerOptions() runner.Options {
	return runner.Options{Workers: o.Workers, OnEvent: o.Progress}
}

// cell is p's default-configuration cell under s at o's budget and seed.
func (o Options) cell(p *workload.Profile, s instrument.Scheme) Cell {
	return Cell{Profile: p, Scheme: s, Seed: o.Seed, Instructions: o.Instructions}
}

// runJob is the pool job body, indirected so tests can inject failures.
var runJob = Cell.Run

// Matrix holds the full 16-benchmark x 5-scheme evaluation used by
// Fig 14 (execution time), Fig 16/17 (AOS behaviour) and Fig 18 (traffic).
// Runs and Walls hold only the jobs that succeeded; Errors lists the rest,
// so a single failed job never discards the other jobs' results.
type Matrix struct {
	Benchmarks []string
	Runs       map[string]map[instrument.Scheme]Summary
	// Walls records each job's wall-clock time (machine-readable output).
	Walls map[string]map[instrument.Scheme]time.Duration
	// Errors lists failed jobs in job order.
	Errors []JobError
}

// Err joins the failed jobs' errors in job order (nil if none failed).
func (m *Matrix) Err() error { return joinErrors(m.Errors) }

// run looks up one benchmark/scheme summary.
func (m *Matrix) run(name string, s instrument.Scheme) (Summary, error) {
	r, ok := m.Runs[name][s]
	if !ok {
		return Summary{}, fmt.Errorf("matrix: missing %s/%s run", name, s)
	}
	return r, nil
}

// MatrixBenchmarks returns the evaluation matrix's benchmark names in
// matrix order (the paper's SPEC ordering). Services composing figures
// cell-by-cell iterate this list rather than re-deriving it.
func MatrixBenchmarks() []string {
	profiles := workload.SPEC()
	names := make([]string, len(profiles))
	for i, p := range profiles {
		names[i] = p.Name
	}
	return names
}

// RunMatrix executes the full evaluation matrix over the worker pool.
// On job failures it returns the partial matrix alongside the joined
// error, so callers can still inspect (or render) the surviving runs.
func RunMatrix(o Options) (*Matrix, error) {
	var cells []Cell
	m := &Matrix{
		Runs:  make(map[string]map[instrument.Scheme]Summary),
		Walls: make(map[string]map[instrument.Scheme]time.Duration),
	}
	for _, p := range workload.SPEC() {
		m.Benchmarks = append(m.Benchmarks, p.Name)
		m.Runs[p.Name] = make(map[instrument.Scheme]Summary)
		m.Walls[p.Name] = make(map[instrument.Scheme]time.Duration)
		for _, s := range instrument.Schemes() {
			cells = append(cells, o.cell(p, s))
		}
	}
	runs := runCells("fig14", cells, o)
	for _, c := range cells {
		if sum, ok := runs.summaries[c]; ok {
			m.Runs[c.Profile.Name][c.Scheme] = sum
			m.Walls[c.Profile.Name][c.Scheme] = runs.walls[c]
		}
	}
	m.Errors = runs.failed
	return m, m.Err()
}

// MatrixFigure normalizes Fig 14 (fig "fig14": execution time) or Fig 18
// ("fig18": memory-hierarchy traffic) over the evaluation matrix's
// schemes. cell reports a benchmark's cycles and traffic bytes under a
// scheme, or false when that run is missing. Fig14 and Fig18 read a Matrix
// through it and aosd reads its cached cells, so both report the same
// figures.
func MatrixFigure(fig string, benchmarks []string, cell func(benchmark string, s instrument.Scheme) (cycles, traffic uint64, ok bool)) (*Table, error) {
	var head Table
	switch fig {
	case "fig14":
		head = Table{Title: "Fig 14: normalized execution time (baseline = 1.0)", Metric: "cycles"}
	case "fig18":
		head = Table{Title: "Fig 18: normalized memory-hierarchy traffic (baseline = 1.0)", Metric: "traffic"}
	default:
		return nil, fmt.Errorf("unknown matrix figure %q", fig)
	}
	schemes := instrument.Schemes()
	for _, s := range schemes {
		head.Columns = append(head.Columns, s.String())
	}
	t, err := normalize(head, benchmarks, func(r, c int) (uint64, bool) {
		cycles, traffic, ok := cell(benchmarks[r], schemes[c])
		if fig == "fig18" {
			return traffic, ok
		}
		return cycles, ok
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", fig, err)
	}
	return t, nil
}

// figure normalizes one of MatrixFigure's figures over m's runs.
func (m *Matrix) figure(fig string) (*Table, error) {
	return MatrixFigure(fig, m.Benchmarks, func(b string, s instrument.Scheme) (uint64, uint64, bool) {
		r, ok := m.Runs[b][s]
		return r.CPU.Cycles, r.CPU.Traffic.Total(), ok
	})
}

// Fig14 derives the paper's headline figure, normalized execution time,
// from the matrix. A missing run or a zero-cycle Baseline run is an error.
func Fig14(m *Matrix) (*Table, error) { return m.figure("fig14") }

// Fig18 derives normalized memory-hierarchy traffic from the matrix, with
// Fig14's guards.
func Fig18(m *Matrix) (*Table, error) { return m.figure("fig18") }

// fig15Columns are Fig 15's optimization configurations of AOS, after the
// Baseline they are normalized by.
var fig15Columns = []column{
	{"Baseline", instrument.Baseline, nil},
	{"NoOptimization", instrument.AOS, func(c *Cell) { c.DisableL1B, c.DisableCompression = true, true }},
	{"L1-B", instrument.AOS, func(c *Cell) { c.DisableCompression = true }},
	{"BoundsCompression", instrument.AOS, func(c *Cell) { c.DisableL1B = true }},
	{"L1-B+BoundsCompression", instrument.AOS, nil},
}

// Fig15 runs AOS under the four optimization configurations.
func Fig15(o Options) (*Table, error) {
	return runTable("fig15", Table{Title: "Fig 15: AOS optimization ablation (normalized execution time)"},
		workload.SPEC(), fig15Columns, o)
}

// Fig16Row is one benchmark's instruction statistics, scaled per 1B
// instructions as the paper plots.
type Fig16Row struct {
	Name          string
	UnsignedLoad  float64
	UnsignedStore float64
	SignedLoad    float64
	SignedStore   float64
	BoundsOps     float64
	PAOps         float64
}

// Fig16 extracts the instruction mix of the AOS runs (per 1B instructions,
// in millions — matching the paper's y-axis). A missing AOS run or an
// empty instruction count is an error rather than a silent Inf row.
func Fig16(m *Matrix) ([]Fig16Row, error) {
	var rows []Fig16Row
	for _, name := range m.Benchmarks {
		r, err := m.run(name, instrument.AOS)
		if err != nil {
			return nil, fmt.Errorf("fig16: %w", err)
		}
		c := r.Counts
		if c.Total == 0 {
			return nil, fmt.Errorf("fig16: %s: AOS run retired zero instructions", name)
		}
		scale := 1e9 / float64(c.Total) / 1e6 // per 1B instrs, in millions
		rows = append(rows, Fig16Row{
			Name:          name,
			UnsignedLoad:  float64(c.UnsignedLoads) * scale,
			UnsignedStore: float64(c.UnsignedStore) * scale,
			SignedLoad:    float64(c.SignedLoads) * scale,
			SignedStore:   float64(c.SignedStores) * scale,
			BoundsOps:     float64(c.BoundsOps()) * scale,
			PAOps:         float64(c.PAOps()) * scale,
		})
	}
	return rows, nil
}

// Fig16String renders the rows.
func Fig16String(rows []Fig16Row) string {
	t := stats.NewTable("benchmark", "UnsignedLoad(M)", "UnsignedStore(M)",
		"SignedLoad(M)", "SignedStore(M)", "bndstr/bndclr(M)", "pac*/aut*/xpac*(M)")
	for _, r := range rows {
		t.AddRow(r.Name, fmt.Sprintf("%.1f", r.UnsignedLoad), fmt.Sprintf("%.1f", r.UnsignedStore),
			fmt.Sprintf("%.1f", r.SignedLoad), fmt.Sprintf("%.1f", r.SignedStore),
			fmt.Sprintf("%.2f", r.BoundsOps), fmt.Sprintf("%.2f", r.PAOps))
	}
	return "Fig 16: instructions of interest per 1B instructions (millions)\n" + t.String()
}

// Fig17Row is one benchmark's bounds-access behaviour.
type Fig17Row struct {
	Name            string
	AccessesPerInst float64
	BWBHitRate      float64
}

// Fig17 extracts bounds-table accesses per checked instruction and the BWB
// hit rate from the AOS runs. A missing AOS run is an error; a run with
// zero checked operations yields a zero row (nothing to normalize).
func Fig17(m *Matrix) ([]Fig17Row, error) {
	var rows []Fig17Row
	for _, name := range m.Benchmarks {
		run, err := m.run(name, instrument.AOS)
		if err != nil {
			return nil, fmt.Errorf("fig17: %w", err)
		}
		r := run.CPU
		per := 0.0
		if r.CheckedOps > 0 {
			per = float64(r.BoundsAccesses) / float64(r.CheckedOps)
		}
		rows = append(rows, Fig17Row{Name: name, AccessesPerInst: per, BWBHitRate: r.BWB.HitRate()})
	}
	return rows, nil
}

// Fig17String renders the rows.
func Fig17String(rows []Fig17Row) string {
	t := stats.NewTable("benchmark", "accesses/checked-op", "BWB hit rate")
	for _, r := range rows {
		t.AddRow(r.Name, r.AccessesPerInst, r.BWBHitRate)
	}
	return "Fig 17: bounds-table accesses and BWB hit rate (AOS)\n" + t.String()
}

// Fig11Result is the PAC-distribution study.
type Fig11Result struct {
	Mallocs  uint64
	Space    uint64
	Distinct int
	Summary  stats.Summary
}

// Fig11 reproduces §VI: N malloc calls, PACs computed with QARMA-64 using
// the paper's key and context over the returned addresses, histogrammed
// over the 16-bit PAC space.
func Fig11(n int) (*Fig11Result, error) {
	if n < 1 {
		return nil, fmt.Errorf("fig11: malloc count must be at least 1, got %d", n)
	}
	// The paper's exact parameters: context 0x477d469dec0b8762, key
	// 0x84be85ce9804e94bec2802d4e0a488e9.
	const context = 0x477d469dec0b8762
	ciph := qarma.MustNew(qarma.Sigma1, qarma.Rounds, 0x84be85ce9804e94b, 0xec2802d4e0a488e9)

	mm := mem.New()
	alloc := heap.New(mm, kernel.HeapBase, 1<<36)
	h := stats.NewHistogram()
	for i := 0; i < n; i++ {
		// Continuous mallocs (§VI: "continuously calls malloc() 1 million
		// times"): every chunk gets a fresh address, so the histogram
		// reflects the cipher, not allocator address reuse.
		size := uint64(16 + (i%3)*16)
		ptr, err := alloc.Malloc(size)
		if err != nil {
			return nil, err
		}
		// Nothing here reads the allocator's metadata-access log (only a
		// core.Machine consumes it); drain it so it stays empty.
		alloc.DrainAccesses()
		pac := uint16(ciph.Encrypt(ptr, context))
		h.Add(uint64(pac))
	}
	return &Fig11Result{
		Mallocs:  uint64(n),
		Space:    pa.PACSpace,
		Distinct: h.Distinct(),
		Summary:  h.OccurrenceSummary(pa.PACSpace),
	}, nil
}

// String renders Fig 11's caption line.
func (r *Fig11Result) String() string {
	return fmt.Sprintf(
		"Fig 11: PAC distribution over %d mallocs (16-bit PACs)\n"+
			"  distinct PACs: %d / %d\n"+
			"  occurrences per PAC: avg=%.1f max=%d min=%d stdev=%.2f\n"+
			"  (paper, 1M mallocs: avg=16.0 max=36 min=3 stdev=3.99)",
		r.Mallocs, r.Distinct, r.Space,
		r.Summary.Avg, r.Summary.Max, r.Summary.Min, r.Summary.Stdev)
}

// Table1 returns the hardware-overhead estimates.
func Table1() []hwmodel.Estimate { return hwmodel.TableI() }

// Table1String renders Table I.
func Table1String() string {
	var b strings.Builder
	b.WriteString("Table I: hardware overhead (analytical SRAM model @45nm)\n")
	t := stats.NewTable("structure", "size", "area(mm2)", "access(ns)", "dyn energy(nJ)", "leakage(mW)")
	for _, e := range Table1() {
		t.AddRow(e.Name,
			fmt.Sprintf("%.0fB", e.SizeBytes),
			fmt.Sprintf("%.5f", e.AreaMM2),
			fmt.Sprintf("%.4f", e.AccessNS),
			fmt.Sprintf("%.6f", e.DynamicNJ),
			fmt.Sprintf("%.3f", e.LeakageMW))
	}
	b.WriteString(t.String())
	return b.String()
}

// MemProfiles reproduces Table II (set="spec") or Table III
// (set="realworld") by replaying each profile's full-scale allocation
// schedule through the real allocator, one pool job per profile. scale
// divides the published counts (1 = full scale; benchmarks use larger
// divisors).
func MemProfiles(set string, scale uint64, o Options) ([]workload.MemoryProfileResult, error) {
	var profiles []*workload.Profile
	switch set {
	case "spec":
		profiles = workload.SPEC()
	case "realworld":
		profiles = workload.RealWorld()
	default:
		return nil, fmt.Errorf("unknown profile set %q", set)
	}
	jobs := make([]runner.Job[workload.MemoryProfileResult], len(profiles))
	for i, p := range profiles {
		p := p
		jobs[i] = runner.Job[workload.MemoryProfileResult]{
			Label: "memprofile: " + p.Name,
			Run: func() (workload.MemoryProfileResult, error) {
				mm := mem.New()
				alloc := heap.New(mm, kernel.HeapBase, 1<<37)
				var live []uint64
				res := p.AllocSchedule(scale, func(isAlloc bool) {
					// The metadata-access log feeds only a core.Machine;
					// drain it so a long schedule does not grow it.
					defer alloc.DrainAccesses()
					if isAlloc {
						size := p.ChunkSize[0]
						ptr, err := alloc.Malloc(size)
						if err == nil {
							live = append(live, ptr)
						}
						return
					}
					if len(live) > 0 {
						// FIFO frees mimic long-lived-first deallocation.
						ptr := live[0]
						live = live[1:]
						_ = alloc.Free(ptr)
					}
				})
				st := alloc.Stats()
				res.Allocs = st.Allocs
				res.Frees = st.Frees
				res.MaxLive = st.MaxLive
				res.EndLive = st.Live
				return res, nil
			},
		}
	}
	results := runner.Run(o.ctx(), jobs, o.runnerOptions())
	if err := runner.Errs(results); err != nil {
		return nil, err
	}
	out := make([]workload.MemoryProfileResult, len(results))
	for i, r := range results {
		out[i] = r.Value
	}
	return out, nil
}

// MemProfilesString renders Table II/III with the paper's columns.
func MemProfilesString(title string, rows []workload.MemoryProfileResult, paper []*workload.Profile, scale uint64) string {
	t := stats.NewTable("name", "max active", "#allocation", "#deallocation",
		"paper max", "paper alloc", "paper dealloc")
	byName := make(map[string]*workload.Profile)
	for _, p := range paper {
		byName[p.Name] = p
	}
	for _, r := range rows {
		p := byName[r.Name]
		t.AddRow(r.Name, r.MaxLive, r.Allocs, r.Frees,
			p.TableMaxLive, p.TableAllocs, p.TableFrees)
	}
	hdr := title
	if scale > 1 {
		hdr += fmt.Sprintf(" (counts scaled by 1/%d)", scale)
	}
	return hdr + "\n" + t.String()
}
