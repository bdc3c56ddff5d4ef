package experiments

import (
	"aos/internal/instrument"
	"aos/internal/workload"
)

// SchemeOverhead runs the overhead matrix over every registered scheme —
// the paper's five plus the MTE and hardened-allocator backends — and
// reports execution time normalized to Baseline. Fig 14/18 keep their
// five-scheme paper shape; this is the extended comparison the scheme
// registry makes cheap.
func SchemeOverhead(o Options) (*Table, error) {
	var cols []column
	for _, s := range instrument.AllSchemes() {
		label := s.String()
		if s == instrument.HardenedAlloc {
			label = "Hardened"
		}
		cols = append(cols, column{label: label, scheme: s})
	}
	head := Table{Title: "Scheme comparison: normalized execution time, all registered backends (baseline = 1.0)"}
	return runTable("schemes", head, workload.SPEC(), cols, o)
}
