package experiments

import (
	"fmt"
	"strings"

	"aos/internal/attack"
	"aos/internal/core"
	"aos/internal/cpu"
	"aos/internal/instrument"
	"aos/internal/security"
	"aos/internal/stats"
	"aos/internal/workload"
)

// ResizeResult reports the HBT gradual-resizing study (§IX-A.1): the paper
// observed resizes only in sphinx3 (1) and omnetpp (2) and found the cost
// amortized by the non-blocking migration.
type ResizeResult struct {
	// SpecResizes is the per-benchmark resize count in the scaled runs.
	SpecResizes map[string]int
	// Forced is a malloc-intensive stress run that drives the table
	// through repeated doublings.
	ForcedResizes   int
	ForcedFinalWays int
	ForcedTraffic   uint64
	// OverheadVsPresized compares execution time against starting with the
	// final associativity directly (the cost of growing gradually).
	OverheadVsPresized float64
}

// ResizeStudy measures resizing behaviour. The per-benchmark AOS runs fan
// out over the worker pool; the two stress runs are dependent (the second
// pre-sizes the table to the first run's final associativity) and stay
// sequential.
func ResizeStudy(o Options) (*ResizeResult, error) {
	res := &ResizeResult{SpecResizes: make(map[string]int)}
	var cells []Cell
	for _, p := range workload.SPEC() {
		cells = append(cells, o.cell(p, instrument.AOS))
	}
	runs := runCells("resize", cells, o)
	if err := joinErrors(runs.failed); err != nil {
		return nil, fmt.Errorf("resize: %w", err)
	}
	for _, c := range cells {
		res.SpecResizes[c.Profile.Name] = runs.summaries[c].Resizes
	}

	// Stress: a process holding enough live chunks that some PAC row
	// overflows its initial 1-way capacity.
	stress := func(initialAssoc int) (cpu.Result, *core.Machine, error) {
		m, c, err := Cell{Scheme: instrument.AOS, InitialHBTAssoc: initialAssoc}.Build()
		if err != nil {
			return cpu.Result{}, nil, err
		}
		chk := o.sanitizer(instrument.AOS, m, c)
		var ptrs []core.Ptr
		const liveTarget = 300_000
		for i := 0; i < liveTarget; i++ {
			p, err := m.Malloc(32)
			if err != nil {
				return cpu.Result{}, nil, err
			}
			ptrs = append(ptrs, p)
		}
		// Touch a sample, then release everything.
		for i := 0; i < len(ptrs); i += 100 {
			if err := m.Load(ptrs[i], 0, core.AccessOpts{}); err != nil {
				return cpu.Result{}, nil, err
			}
		}
		for _, p := range ptrs {
			if err := m.Free(p); err != nil {
				return cpu.Result{}, nil, err
			}
		}
		if err := sanitizeErr(chk, "resize-stress", instrument.AOS); err != nil {
			return cpu.Result{}, nil, err
		}
		return c.Finalize(), m, nil
	}
	o.announce("resize: stress (1-way start)")
	grown, gm, err := stress(1)
	if err != nil {
		return nil, err
	}
	res.ForcedResizes = len(gm.OS.Resizes())
	res.ForcedFinalWays = gm.Table().Assoc()
	for _, ev := range gm.OS.Resizes() {
		res.ForcedTraffic += ev.TrafficBytes
	}
	o.announce("resize: stress (pre-sized start)")
	pre, _, err := stress(gm.Table().Assoc())
	if err != nil {
		return nil, err
	}
	res.OverheadVsPresized = float64(grown.Cycles) / float64(pre.Cycles)
	return res, nil
}

// String renders the study.
func (r *ResizeResult) String() string {
	var b strings.Builder
	b.WriteString("HBT gradual resizing (§IX-A.1)\n")
	b.WriteString("  scaled SPEC runs: resizes per benchmark (paper: omnetpp 2, sphinx3 1, others 0 at full scale):\n")
	for _, k := range stats.SortedKeys(r.SpecResizes) {
		if r.SpecResizes[k] > 0 {
			fmt.Fprintf(&b, "    %-12s %d\n", k, r.SpecResizes[k])
		}
	}
	fmt.Fprintf(&b, "  stress run (300k live 32B chunks): %d resizes, final %d ways, %.1f MiB migration traffic\n",
		r.ForcedResizes, r.ForcedFinalWays, float64(r.ForcedTraffic)/(1<<20))
	fmt.Fprintf(&b, "  exec time vs pre-sized table: %.3fx (resizing cost amortized)\n", r.OverheadVsPresized)
	return b.String()
}

// ablations are the design-choice configurations of AOS, after the full
// configuration they are normalized by.
var ablations = []column{
	{"full", instrument.AOS, nil},
	{"no BWB", instrument.AOS, func(c *Cell) { c.DisableBWB = true }},
	{"no forwarding", instrument.AOS, func(c *Cell) { c.DisableForwarding = true }},
	{"MCQ=12", instrument.AOS, func(c *Cell) { c.MCQSize = 12 }},
	{"MCQ=96", instrument.AOS, func(c *Cell) { c.MCQSize = 96 }},
	{"init 4-way HBT", instrument.AOS, func(c *Cell) { c.InitialHBTAssoc = 4 }},
}

// Ablations sweeps the design choices DESIGN.md calls out, on the three
// benchmarks most sensitive to the MCU (gcc, hmmer, omnetpp). Every cell
// runs under the same strategy (exact or sampled) as every other.
func Ablations(o Options) (*Table, error) {
	var profiles []*workload.Profile
	for _, name := range []string{"gcc", "hmmer", "omnetpp"} {
		p, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %s", name)
		}
		profiles = append(profiles, p)
	}
	head := Table{Title: "Design-choice ablations (exec time normalized to full AOS config)", NoGeomean: true}
	return runTable("ablate", head, profiles, ablations, o)
}

// SecurityMatrix mounts the §VII scenarios under every registered scheme
// — the paper's five plus the MTE and hardened-allocator backends — and
// renders the detection matrix. A heap scenario whose run contradicts the
// detection model fails the matrix.
func SecurityMatrix() (string, error) { return securityMatrix(attack.Scenarios()) }

func securityMatrix(scenarios []attack.Scenario) (string, error) {
	t := stats.NewTable("attack", "Baseline", "Watchdog", "PA", "AOS", "PA+AOS", "MTE", "Hardened", "paper")
	for _, sc := range scenarios {
		row := []interface{}{sc.Name}
		for _, s := range instrument.AllSchemes() {
			out, err := sc.Mount(s)
			if err != nil {
				return "", fmt.Errorf("%s under %v: %w", sc.Name, s, err)
			}
			row = append(row, out)
		}
		t.AddRow(append(row, sc.Paper)...)
	}
	hdr := "Security analysis (§VII): attack detection matrix\n"
	ftr := fmt.Sprintf("\nPAC brute force (§VII-E): p(guess)=1/%d; %d attempts for 50%% success\n"+
		"MTE probabilistic gap: p(tag collision)=1/%.0f per far granule\n",
		1<<16, security.AttemptsForConfidence(16, 0.5),
		1/security.MTEBypassProbability(instrument.TagBits))
	return hdr + t.String() + ftr, nil
}
