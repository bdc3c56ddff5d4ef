// Package telemetry is the simulator's microarchitectural flight
// recorder: a probe registry (counters and gauges) plus a
// cycle-windowed sampler that the timing core drives at a
// configurable commit-cycle interval.
//
// Design constraints, in priority order:
//
//  1. Disabled means free. A simulation that never attaches a
//     Timeline must behave byte-identically and allocate nothing
//     extra on the hot path; every integration point is a single
//     nil/threshold check.
//  2. Steady-state probe updates never allocate. Registration
//     happens once at setup (allocations fine); Counter.Add and
//     Gauge.Set are plain integer stores.
//     Sample rows amortise through an append-grown backing slice.
//  3. Probes are passive. They observe the simulation; they never
//     feed back into it, so sampled and unsampled runs produce
//     identical experiment output (pinned by
//     experiments.TestMatrixSampledUnsampledEquivalence).
//
// Probe names are lower_snake with a subsystem prefix
// (cpu_, mcu_, hbt_, heap_, ...) and each name registers exactly
// once; both rules are enforced at runtime here and statically by
// the aoslint probename analyzer.
//
// A Registry and its probes are confined to one simulation
// goroutine; none of the operations are atomic.
package telemetry

import (
	"fmt"
	"regexp"
)

// Kind says how a probe's value turns into a time series: counters
// are cumulative (exported per-window as deltas), gauges are
// instantaneous levels.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// probeNameRE is the registry-enforced style: lower_snake with at
// least two segments, the first being the subsystem prefix. The
// aoslint probename analyzer enforces the same shape statically.
var probeNameRE = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)+$`)

// Counter is a monotonically increasing cumulative count. Add and
// Load are plain (non-atomic) integer ops: a counter belongs to one
// simulation goroutine.
type Counter struct{ v uint64 }

// Add increments the counter. It never allocates.
func (c *Counter) Add(n uint64) { c.v += n }

// Load returns the cumulative value.
func (c *Counter) Load() uint64 { return c.v }

// Gauge is an instantaneous level (occupancy, associativity, live
// bytes). Set and Load are plain integer ops.
type Gauge struct{ v uint64 }

// Set stores the current level. It never allocates.
func (g *Gauge) Set(v uint64) { g.v = v }

// Load returns the current level.
func (g *Gauge) Load() uint64 { return g.v }

// probe is one registered name plus the typed cell behind it.
type probe struct {
	name string
	kind Kind
	c    *Counter
	g    *Gauge
}

// value returns the probe's current scalar: cumulative count for
// counters, level for gauges.
func (p *probe) value() uint64 {
	switch p.kind {
	case KindCounter:
		return p.c.v
	case KindGauge:
		return p.g.v
	}
	return 0
}

// Registry holds named probes. Registration (Counter, Gauge) happens
// during setup and may allocate; it panics on a
// malformed or duplicate name because both are programming errors —
// a misnamed probe would silently vanish from dashboards.
type Registry struct {
	probes []probe
	byName map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]int)}
}

func (r *Registry) register(name string, kind Kind) int {
	if !probeNameRE.MatchString(name) {
		panic(fmt.Sprintf("telemetry: probe name %q is not lower_snake with a subsystem prefix", name))
	}
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("telemetry: probe %q registered twice", name))
	}
	r.byName[name] = len(r.probes)
	r.probes = append(r.probes, probe{name: name, kind: kind})
	return len(r.probes) - 1
}

// Counter registers and returns a new cumulative counter.
func (r *Registry) Counter(name string) *Counter {
	i := r.register(name, KindCounter)
	r.probes[i].c = new(Counter)
	return r.probes[i].c
}

// Gauge registers and returns a new instantaneous gauge.
func (r *Registry) Gauge(name string) *Gauge {
	i := r.register(name, KindGauge)
	r.probes[i].g = new(Gauge)
	return r.probes[i].g
}

// Names returns the registered probe names in registration order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.probes))
	for i, p := range r.probes {
		out[i] = p.name
	}
	return out
}

// Kind returns the kind of a registered probe name.
func (r *Registry) Kind(name string) (Kind, bool) {
	i, ok := r.byName[name]
	if !ok {
		return 0, false
	}
	return r.probes[i].kind, true
}

// Len returns the number of registered probes.
func (r *Registry) Len() int { return len(r.probes) }
