package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"aos/internal/instrument"
	"aos/internal/sampling"
	"aos/internal/telemetry"
	"aos/internal/workload"
)

// RunDoc is one (benchmark, scheme) cell of the machine-readable matrix.
type RunDoc struct {
	Scheme            string  `json:"scheme"`
	Cycles            uint64  `json:"cycles"`
	Instructions      uint64  `json:"instructions"`
	IPC               float64 `json:"ipc"`
	NormalizedTime    float64 `json:"normalized_time"`
	NormalizedTraffic float64 `json:"normalized_traffic"`
	WallSeconds       float64 `json:"wall_seconds"`
}

// BenchmarkDoc groups one benchmark's runs in scheme order.
type BenchmarkDoc struct {
	Name string   `json:"name"`
	Runs []RunDoc `json:"runs"`
}

// MatrixDoc is the machine-readable form of the evaluation matrix, emitted
// by `aosbench -json` so successive BENCH_*.json snapshots can track the
// performance trajectory. Entries are keyed and ordered by (benchmark,
// scheme); only the wall-time fields vary between repeat runs.
type MatrixDoc struct {
	Schema string `json:"schema"`
	// Instructions is the per-benchmark budget override (0 = defaults).
	Instructions uint64 `json:"instructions"`
	Seed         int64  `json:"seed"`
	Workers      int    `json:"workers"`
	// WallSeconds is the whole matrix's wall-clock time.
	WallSeconds    float64            `json:"wall_seconds"`
	Benchmarks     []BenchmarkDoc     `json:"benchmarks"`
	GeomeanTime    map[string]float64 `json:"geomean_time"`
	GeomeanTraffic map[string]float64 `json:"geomean_traffic"`
}

// MatrixSchema versions the -json document layout.
const MatrixSchema = "aosbench/matrix/v1"

// MatrixDocument assembles the machine-readable matrix: per-run cycles,
// IPC and wall time, the Fig 14 normalized times and the Fig 18 normalized
// traffic, plus both geomean sets.
func MatrixDocument(m *Matrix, o Options, wall time.Duration) (*MatrixDoc, error) {
	f14, err := Fig14(m)
	if err != nil {
		return nil, err
	}
	f18, err := Fig18(m)
	if err != nil {
		return nil, err
	}
	doc := &MatrixDoc{
		Schema:         MatrixSchema,
		Instructions:   o.Instructions,
		Seed:           o.seed(),
		Workers:        o.Workers,
		WallSeconds:    wall.Seconds(),
		GeomeanTime:    f14.Geomeans(),
		GeomeanTraffic: f18.Geomeans(),
	}
	// Both figures succeeded, so every run is present, and their rows and
	// columns follow the matrix's benchmark and scheme order.
	for i, name := range m.Benchmarks {
		bd := BenchmarkDoc{Name: name}
		for c, s := range instrument.Schemes() {
			r := m.Runs[name][s]
			bd.Runs = append(bd.Runs, RunDoc{
				Scheme:            s.String(),
				Cycles:            r.CPU.Cycles,
				Instructions:      r.CPU.Insts,
				IPC:               r.CPU.IPC(),
				NormalizedTime:    f14.Rows[i].Values[c],
				NormalizedTraffic: f18.Rows[i].Values[c],
				WallSeconds:       m.Walls[name][s].Seconds(),
			})
		}
		doc.Benchmarks = append(doc.Benchmarks, bd)
	}
	return doc, nil
}

// JSON renders the document with stable formatting (maps marshal with
// sorted keys, so repeat runs differ only in the wall-time fields).
func (d *MatrixDoc) JSON() ([]byte, error) {
	return json.MarshalIndent(d, "", "  ")
}

// SimSpec is the content-addressable identity of one simulation cell: a
// benchmark run under a scheme with an explicit budget, seed and sanitizer
// setting. Runs are pure functions of this tuple (DESIGN §4), which is
// what makes a content-addressed result cache sound: two processes that
// agree on the canonical encoding of a SimSpec agree on the result bytes.
type SimSpec struct {
	// Benchmark names a workload profile (Table II/III).
	Benchmark string `json:"benchmark"`
	// Scheme is the protection scheme's canonical name (instrument
	// package spelling: Baseline, Watchdog, PA, AOS, PA+AOS).
	Scheme string `json:"scheme"`
	// Instructions is the program-instruction budget. Zero normalizes to
	// the profile's default budget, so an explicit default and an elided
	// one address the same cache entry.
	Instructions uint64 `json:"instructions"`
	// Seed drives the deterministic workload generator (0 normalizes to 1).
	Seed int64 `json:"seed"`
	// Sanitize tees the run through the tracecheck protocol verifier.
	Sanitize bool `json:"sanitize"`
	// Sampling, when non-nil, runs the cell in SMARTS sampled mode:
	// cycle counts become statistical estimates, so sampled cells are
	// addressed separately from exact ones (the canonical encoding gains
	// a "sampling" key only when the block is present — existing exact
	// cache entries keep their addresses byte-for-byte).
	Sampling *SamplingSpec `json:"sampling,omitempty"`
}

// SamplingSpec is the spec-level U/W/F shape. Zero fields normalize to
// the sampling package defaults, so an explicit default and an elided one
// address the same cell.
type SamplingSpec struct {
	Windows int    `json:"windows,omitempty"`
	Detail  uint64 `json:"detail,omitempty"`
	Window  uint64 `json:"window,omitempty"`
	Gap     uint64 `json:"gap,omitempty"`
}

// UnmarshalJSON accepts the scheme field as either a name or a raw
// ordinal (older clients submit the enum value as a JSON number). An
// ordinal is carried through as its decimal string so Normalize can
// range-check it; decoding stays strict about unknown fields.
func (s *SimSpec) UnmarshalJSON(b []byte) error {
	type wire struct {
		Benchmark    string          `json:"benchmark"`
		Scheme       json.RawMessage `json:"scheme"`
		Instructions uint64          `json:"instructions"`
		Seed         int64           `json:"seed"`
		Sanitize     bool            `json:"sanitize"`
		Sampling     *SamplingSpec   `json:"sampling"`
	}
	var ws wire
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ws); err != nil {
		return err
	}
	s.Benchmark = ws.Benchmark
	s.Instructions = ws.Instructions
	s.Seed = ws.Seed
	s.Sanitize = ws.Sanitize
	s.Sampling = ws.Sampling
	s.Scheme = ""
	if len(ws.Scheme) == 0 || bytes.Equal(ws.Scheme, []byte("null")) {
		return nil
	}
	if err := json.Unmarshal(ws.Scheme, &s.Scheme); err == nil {
		return nil
	}
	var ordinal int
	if err := json.Unmarshal(ws.Scheme, &ordinal); err != nil {
		return fmt.Errorf("spec: scheme must be a name or an ordinal, got %s", ws.Scheme)
	}
	s.Scheme = strconv.Itoa(ordinal)
	return nil
}

// parseSchemeField resolves a spec's scheme field: the canonical (or
// aliased, case-insensitive) name, or a raw ordinal from older clients,
// range-checked against the registry so an out-of-range value is a spec
// error instead of a misrendering Scheme(n).
func parseSchemeField(field string) (instrument.Scheme, error) {
	if n, err := strconv.Atoi(field); err == nil {
		s := instrument.Scheme(n)
		if !s.Valid() {
			return 0, fmt.Errorf("scheme ordinal %d out of range (valid: %s)",
				n, strings.Join(instrument.SchemeNames(), ", "))
		}
		return s, nil
	}
	return instrument.ParseScheme(field)
}

// Normalize validates the spec and resolves its defaults (profile budget,
// seed 1), returning the canonical form whose Hash identifies the cell.
func (s SimSpec) Normalize() (SimSpec, error) {
	p, ok := workload.ByName(s.Benchmark)
	if !ok {
		return SimSpec{}, fmt.Errorf("spec: unknown benchmark %q", s.Benchmark)
	}
	scheme, err := parseSchemeField(s.Scheme)
	if err != nil {
		return SimSpec{}, fmt.Errorf("spec: %w", err)
	}
	s.Scheme = scheme.String()
	if s.Instructions == 0 {
		s.Instructions = p.Instructions
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Sampling != nil {
		sched, err := (sampling.Schedule{
			Windows: s.Sampling.Windows,
			Detail:  s.Sampling.Detail,
			Window:  s.Sampling.Window,
			Gap:     s.Sampling.Gap,
		}).Normalize(s.Instructions)
		if err != nil {
			return SimSpec{}, fmt.Errorf("spec: %w", err)
		}
		s.Sampling = &SamplingSpec{
			Windows: sched.Windows,
			Detail:  sched.Detail,
			Window:  sched.Window,
			Gap:     sched.Gap,
		}
	}
	return s, nil
}

// Canonical returns the spec's canonical JSON encoding: keys sorted,
// no insignificant whitespace, and only string/integer/bool values (no
// floats, so no formatting drift across architectures or processes).
// The encoding is the preimage of Hash and is pinned by TestSimSpecCanonical;
// changing it invalidates every existing cache entry.
func (s SimSpec) Canonical() []byte {
	// encoding/json marshals map keys in sorted order; every value below
	// is an exact type (string, uint64, int64, bool), so the byte stream
	// is a pure function of the field values. The "sampling" key exists
	// only for sampled cells: adding it unconditionally would shift the
	// address of every exact cell already in a cache.
	fields := map[string]any{
		"benchmark":    s.Benchmark,
		"instructions": s.Instructions,
		"sanitize":     s.Sanitize,
		"scheme":       s.Scheme,
		"seed":         s.Seed,
	}
	if s.Sampling != nil {
		fields["sampling"] = map[string]any{
			"windows": s.Sampling.Windows,
			"detail":  s.Sampling.Detail,
			"window":  s.Sampling.Window,
			"gap":     s.Sampling.Gap,
		}
	}
	b, err := json.Marshal(fields)
	if err != nil {
		// Unreachable: the value set above cannot fail to marshal.
		panic(err)
	}
	return b
}

// Hash is the spec's content address: hex SHA-256 of Canonical. Callers
// should hash the Normalized spec so equivalent specs share an address.
func (s SimSpec) Hash() string {
	sum := sha256.Sum256(s.Canonical())
	return hex.EncodeToString(sum[:])
}

// SimResult is the machine-readable outcome of one simulation cell — the
// value stored under SimSpec.Hash in a result cache. Everything a matrix
// or figure composition needs from a cell (cycles for Fig 14, traffic for
// Fig 18) is here, and the encoding is deterministic: a struct marshals
// in declaration order and the only floats are derived once from integer
// counters, so re-running the same spec reproduces identical bytes.
type SimResult struct {
	Spec         SimSpec `json:"spec"`
	Cycles       uint64  `json:"cycles"`
	Instructions uint64  `json:"instructions"`
	IPC          float64 `json:"ipc"`
	TrafficBytes uint64  `json:"traffic_bytes"`
	HeapAllocs   uint64  `json:"heap_allocs"`
	HeapFrees    uint64  `json:"heap_frees"`
	HeapMaxLive  uint64  `json:"heap_max_live"`
	HBTResizes   int     `json:"hbt_resizes"`
	Exceptions   int     `json:"exceptions"`
}

// JSON renders the result deterministically (the cached representation).
func (r *SimResult) JSON() ([]byte, error) { return json.Marshal(r) }

// RunConfig carries operational knobs for one simulation run that are
// deliberately NOT part of the cell's identity: telemetry sampling and
// progress reporting are passive (the result bytes are a pure function
// of the SimSpec alone), so they must never enter SimSpec.Canonical —
// a sampled run and an unsampled run address the same cache entry.
type RunConfig struct {
	// TelemetryInterval attaches the flight recorder at the given
	// commit-cycle sampling cadence (0 disables telemetry).
	TelemetryInterval uint64
	// OnProgress, when non-nil, receives in-flight instruction progress
	// (done, total — warmup included) on the simulation goroutine at
	// the workload's cancellation-poll cadence plus once at completion.
	OnProgress workload.ProgressFunc
	// Checkpoints, when non-nil and the spec has a Sampling block, shares
	// window-boundary checkpoints across invocations (operational like
	// telemetry: restored runs produce byte-identical results, so the
	// store never enters the cell's identity).
	Checkpoints *sampling.Store
	// JobID is the serving layer's correlation id for this run. It is
	// stamped onto sanitizer verdicts and worker log records — purely
	// diagnostic, so like the other knobs here it stays outside the
	// cell's identity and the cached result bytes.
	JobID string
}

// RunSpec executes one simulation cell. The spec is normalized first, so
// callers may pass defaults; ctx cancels mid-run (the workload emission
// loop polls it). The result is a pure function of the normalized spec.
func RunSpec(ctx context.Context, spec SimSpec) (*SimResult, error) {
	r, _, err := RunSpecFull(ctx, spec, RunConfig{})
	return r, err
}

// RunSpecFull is RunSpec plus the operational extras: when
// cfg.TelemetryInterval is set the run records a telemetry timeline
// (returned alongside the result, nil otherwise), and cfg.OnProgress
// streams instruction progress. Neither changes the SimResult bytes.
func RunSpecFull(ctx context.Context, spec SimSpec, cfg RunConfig) (*SimResult, *telemetry.Timeline, error) {
	spec, err := spec.Normalize()
	if err != nil {
		return nil, nil, err
	}
	p, ok := workload.ByName(spec.Benchmark)
	if !ok {
		return nil, nil, fmt.Errorf("spec: unknown benchmark %q", spec.Benchmark)
	}
	scheme, err := instrument.ParseScheme(spec.Scheme)
	if err != nil {
		return nil, nil, err
	}
	if cfg.OnProgress != nil {
		ctx = workload.WithProgress(ctx, cfg.OnProgress)
	}
	var tl *telemetry.Timeline
	o := Options{
		Sanitize:          spec.Sanitize,
		Context:           ctx,
		JobID:             cfg.JobID,
		TelemetryInterval: cfg.TelemetryInterval,
		OnTimeline: func(_ string, _ instrument.Scheme, t *telemetry.Timeline) {
			tl = t
		},
	}
	if spec.Sampling != nil {
		o.Sampling = &sampling.Schedule{
			Windows: spec.Sampling.Windows,
			Detail:  spec.Sampling.Detail,
			Window:  spec.Sampling.Window,
			Gap:     spec.Sampling.Gap,
		}
		o.checkpoints = cfg.Checkpoints
	}
	sum, err := Cell{Profile: p, Scheme: scheme, Seed: spec.Seed, Instructions: spec.Instructions}.Run(o)
	if err != nil {
		return nil, nil, fmt.Errorf("spec %s/%s: %w", spec.Benchmark, spec.Scheme, err)
	}
	return &SimResult{
		Spec:         spec,
		Cycles:       sum.CPU.Cycles,
		Instructions: sum.CPU.Insts,
		IPC:          sum.CPU.IPC(),
		TrafficBytes: sum.CPU.Traffic.Total(),
		HeapAllocs:   sum.Heap.Allocs,
		HeapFrees:    sum.Heap.Frees,
		HeapMaxLive:  sum.Heap.MaxLive,
		HBTResizes:   sum.Resizes,
		Exceptions:   len(sum.Exceptions),
	}, tl, nil
}
