package telemetry

import "fmt"

// A Sample is one row of the recorded time series: every registered
// probe's value captured at the same commit cycle. Values holds raw
// probe values in registration order (cumulative for counters,
// instantaneous for gauges); exporters convert counters to
// per-window deltas.
type Sample struct {
	Cycle  uint64
	Insts  uint64
	Values []uint64
}

// A Slice is a duration episode (an HBT resize/migration drain, a
// store-queue flush) rendered as a Perfetto duration event.
type Slice struct {
	Name  string
	Start uint64 // commit cycle the episode began
	Dur   uint64 // modeled duration in cycles (min 1 for visibility)
	// Args annotate the slice (old/new associativity, bytes moved).
	// Keys follow probe-name style minus the subsystem prefix.
	Args map[string]uint64
}

// Timeline owns a probe registry and records cycle-windowed samples
// of it. The timing core drives Tick from its commit path; Tick is
// written so the disabled case (nil Timeline) and the
// between-samples case cost one comparison each.
//
// A Timeline, like its Registry, is confined to one simulation
// goroutine.
type Timeline struct {
	reg      *Registry
	interval uint64
	next     uint64
	samples  []Sample
	slices   []Slice
}

// DefaultInterval is the sampling cadence (in commit cycles) used
// when a caller enables telemetry without choosing one. 4096 cycles
// keeps a 10M-instruction run around a few thousand rows.
const DefaultInterval uint64 = 4096

// NewTimeline returns a Timeline sampling the registry every
// interval commit cycles (0 means DefaultInterval).
func NewTimeline(reg *Registry, interval uint64) *Timeline {
	if interval == 0 {
		interval = DefaultInterval
	}
	return &Timeline{reg: reg, interval: interval, next: interval}
}

// Registry returns the registry the timeline samples.
func (t *Timeline) Registry() *Registry { return t.reg }

// Interval returns the sampling cadence in commit cycles.
func (t *Timeline) Interval() uint64 { return t.interval }

// Due reports whether the commit cycle has crossed the next sample
// boundary. Integration points call Due before Sample so the
// common (not due) path is one comparison.
func (t *Timeline) Due(cycle uint64) bool { return cycle >= t.next }

// Next returns the next sample-due cycle. The timing core mirrors
// it into a local field so its per-instruction check is a single
// integer compare even while sampling is enabled.
func (t *Timeline) Next() uint64 { return t.next }

// Sample captures one row at the given commit cycle and instruction
// count and advances the next-sample threshold past cycle. The row's
// value slice is freshly allocated (sampling is off the
// zero-allocation contract; only the disabled path is pinned).
func (t *Timeline) Sample(cycle, insts uint64) {
	vals := make([]uint64, len(t.reg.probes))
	for i := range t.reg.probes {
		vals[i] = t.reg.probes[i].value()
	}
	t.samples = append(t.samples, Sample{Cycle: cycle, Insts: insts, Values: vals})
	// Skip windows with no committed instructions (long stalls)
	// rather than emitting a burst of catch-up rows.
	for t.next <= cycle {
		t.next += t.interval
	}
}

// AddSlice records a duration episode. Args is retained, not copied.
func (t *Timeline) AddSlice(name string, start, dur uint64, args map[string]uint64) {
	if dur == 0 {
		dur = 1
	}
	t.slices = append(t.slices, Slice{Name: name, Start: start, Dur: dur, Args: args})
}

// Samples returns the recorded rows in cycle order.
func (t *Timeline) Samples() []Sample { return t.samples }

// Slices returns the recorded duration episodes in record order.
func (t *Timeline) Slices() []Slice { return t.slices }

// Value returns probe name's value in sample row i.
func (t *Timeline) Value(i int, name string) (uint64, error) {
	idx, ok := t.reg.byName[name]
	if !ok {
		return 0, fmt.Errorf("telemetry: no probe %q", name)
	}
	if i < 0 || i >= len(t.samples) {
		return 0, fmt.Errorf("telemetry: sample %d out of range [0,%d)", i, len(t.samples))
	}
	return t.samples[i].Values[idx], nil
}

// Summary condenses a timeline for service-level reporting: sample
// and slice counts plus final cumulative values of every counter and
// the peak of every gauge. Map iteration order never leaks — the
// maps are keyed by probe name and consumers marshal via sorted
// keys.
type Summary struct {
	Interval uint64            `json:"interval_cycles"`
	Samples  int               `json:"samples"`
	Slices   int               `json:"slices"`
	Final    map[string]uint64 `json:"final"` // counters: cumulative total
	Peak     map[string]uint64 `json:"peak"`  // gauges: max sampled level
}

// Summarize folds the timeline into a Summary. Returns nil for a
// nil timeline so callers can pass it straight through.
func (t *Timeline) Summarize() *Summary {
	if t == nil {
		return nil
	}
	s := &Summary{
		Interval: t.interval,
		Samples:  len(t.samples),
		Slices:   len(t.slices),
		Final:    make(map[string]uint64),
		Peak:     make(map[string]uint64),
	}
	for i, p := range t.reg.probes {
		switch p.kind {
		case KindCounter:
			s.Final[p.name] = p.value()
		case KindGauge:
			peak := uint64(0)
			for _, row := range t.samples {
				if row.Values[i] > peak {
					peak = row.Values[i]
				}
			}
			s.Peak[p.name] = peak
		}
	}
	return s
}
