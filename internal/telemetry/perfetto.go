package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Perfetto/Chrome trace_event export.
//
// The emitted document is the JSON object form of the trace_event
// format understood by https://ui.perfetto.dev and chrome://tracing:
//
//	{"displayTimeUnit":"ms","traceEvents":[...]}
//
// One simulated cycle maps to one microsecond of trace time (the
// "ts" field), so a 4096-cycle sampling window renders as ~4ms.
// Counter probes become "C" (counter) events — one track per probe,
// counters exported as per-window deltas, gauges as levels — and
// recorded Slices become "X" (complete duration) events on a
// dedicated "episodes" thread. Metadata ("M") events name the
// process and threads.
//
// Everything is emitted in deterministic order: metadata, then
// samples in cycle order (probes in registration order within a
// row), then slices in record order.

const (
	tracePID        = 1
	traceTIDCounter = 1 // counter tracks
	traceTIDEpisode = 2 // duration slices (resize/drain episodes)
	traceTIDJobs    = 3 // serving-path job spans (tracespan export)
)

// traceEvent is one entry of traceEvents. Field order here fixes
// the marshaled byte layout.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type traceDoc struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []traceEvent `json:"traceEvents"`
}

// SpanEvent is one serving-path span, pre-rendered for the Perfetto
// document: name, start and duration in trace microseconds, and the
// span's attributes. tracespan produces these; this package only draws
// them so job spans and simulator slices share one validated timeline.
type SpanEvent struct {
	Name     string
	TsMicros uint64
	Dur      uint64 // must be positive; the validator rejects dur <= 0
	Args     map[string]any
}

// WriteTraceEvents writes the timeline as a Perfetto-loadable JSON
// document. proc names the traced "process" (e.g. "aossim gcc/AOS").
func (t *Timeline) WriteTraceEvents(w io.Writer, proc string) error {
	if t == nil {
		return fmt.Errorf("telemetry: nil timeline")
	}
	return WriteMergedTrace(w, proc, t, nil)
}

// WriteTraceFile writes the timeline to path as a Perfetto-loadable JSON
// document, re-reads the written bytes through ValidateTraceJSON, so a
// malformed export fails the command rather than the trace viewer, and
// reports the file on report in one "(validated)" line.
func (t *Timeline) WriteTraceFile(path, proc string, report io.Writer) error {
	if t == nil {
		return fmt.Errorf("telemetry: nil timeline")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteTraceEvents(f, proc); err != nil {
		f.Close()
		return fmt.Errorf("timeline: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	st, err := ValidateTraceJSON(data)
	if err != nil {
		return fmt.Errorf("timeline: %s fails validation: %w", path, err)
	}
	_, err = fmt.Fprintf(report, "timeline %s: %d events, %d counter tracks, %d slices (validated)\n",
		path, st.Events, len(st.CounterTracks), st.Slices)
	return err
}

// WriteMergedTrace writes one trace_event document holding both the
// flight recorder's timeline (counter tracks on the probes thread,
// sim/resize slices on the episodes thread) and the serving path's job
// spans (a "jobs" thread). Either half may be absent: tl may be nil
// when a job produced no telemetry, spans may be empty when tracing is
// off — with no spans the output is byte-identical to WriteTraceEvents.
func WriteMergedTrace(w io.Writer, proc string, tl *Timeline, spans []SpanEvent) error {
	if tl == nil && len(spans) == 0 {
		return fmt.Errorf("telemetry: nothing to write (nil timeline, no spans)")
	}
	n := 3 + len(spans)
	if tl != nil {
		n += len(tl.samples)*tl.reg.Len() + len(tl.slices)
	}
	evs := make([]traceEvent, 0, n)
	evs = append(evs,
		traceEvent{Name: "process_name", Ph: "M", PID: tracePID, TID: traceTIDCounter,
			Args: map[string]any{"name": proc}},
		traceEvent{Name: "thread_name", Ph: "M", PID: tracePID, TID: traceTIDCounter,
			Args: map[string]any{"name": "probes"}},
		traceEvent{Name: "thread_name", Ph: "M", PID: tracePID, TID: traceTIDEpisode,
			Args: map[string]any{"name": "episodes"}},
	)
	if len(spans) > 0 {
		evs = append(evs, traceEvent{Name: "thread_name", Ph: "M", PID: tracePID,
			TID: traceTIDJobs, Args: map[string]any{"name": "jobs"}})
	}
	if tl != nil {
		prev := make([]uint64, tl.reg.Len())
		for _, row := range tl.samples {
			for i, p := range tl.reg.probes {
				v := row.Values[i]
				if p.kind != KindGauge {
					v, prev[i] = v-prev[i], v
				}
				evs = append(evs, traceEvent{
					Name: p.name, Ph: "C", Ts: row.Cycle,
					PID: tracePID, TID: traceTIDCounter,
					Args: map[string]any{"value": v},
				})
			}
		}
		for _, s := range tl.slices {
			evs = append(evs, traceEvent{
				Name: s.Name, Ph: "X", Ts: s.Start, Dur: s.Dur,
				PID: tracePID, TID: traceTIDEpisode,
				Args: sortedArgs(s.Args),
			})
		}
	}
	for _, s := range spans {
		evs = append(evs, traceEvent{
			Name: s.Name, Ph: "X", Ts: s.TsMicros, Dur: s.Dur,
			PID: tracePID, TID: traceTIDJobs,
			Args: sortedArgs(s.Args),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(traceDoc{DisplayTimeUnit: "ms", TraceEvents: evs})
}

// sortedArgs copies args with keys in sorted insertion order so the
// marshaled bytes are deterministic despite the map. Empty maps render
// as an omitted args field.
func sortedArgs[V any](in map[string]V) map[string]any {
	if len(in) == 0 {
		return nil
	}
	keys := make([]string, 0, len(in))
	for k := range in { //aoslint:allow mapiter — keys are sorted before use
		keys = append(keys, k)
	}
	sort.Strings(keys)
	args := make(map[string]any, len(keys))
	for _, k := range keys {
		args[k] = in[k]
	}
	return args
}
