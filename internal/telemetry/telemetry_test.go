package telemetry

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRegistryNameStyle(t *testing.T) {
	r := NewRegistry()
	for _, good := range []string{"cpu_ipc", "mcu_bwb_hit_rate", "hbt_live_entries", "heap_live_bytes2"} {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("Counter(%q) panicked: %v", good, p)
				}
			}()
			r.Counter(good)
		}()
	}
	for _, bad := range []string{"", "cpu", "CPU_ipc", "cpu__ipc", "cpu_IPC", "cpu-ipc", "_cpu_ipc", "cpu_ipc_", "9cpu_ipc"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Counter(%q) did not panic", bad)
				}
			}()
			r.Counter(bad)
		}()
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("cpu_commits_total")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Gauge("cpu_commits_total")
}

func TestTimelineSampling(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cpu_insts_total")
	g := r.Gauge("cpu_mcq_occupancy")
	tl := NewTimeline(r, 100)
	if tl.Due(99) {
		t.Fatal("due before first interval")
	}
	c.Add(7)
	g.Set(3)
	if !tl.Due(100) {
		t.Fatal("not due at interval boundary")
	}
	tl.Sample(100, 7)
	c.Add(5)
	g.Set(1)
	// A long stall: the next crossing lands far past several windows
	// and must produce one row, not a catch-up burst.
	if tl.Due(250) {
		tl.Sample(250, 12)
	}
	if tl.Next() != 300 {
		t.Fatalf("next = %d, want 300", tl.Next())
	}
	rows := tl.Samples()
	if len(rows) != 2 {
		t.Fatalf("got %d samples, want 2", len(rows))
	}
	if v, _ := tl.Value(0, "cpu_insts_total"); v != 7 {
		t.Errorf("row 0 counter = %d, want 7", v)
	}
	if v, _ := tl.Value(1, "cpu_insts_total"); v != 12 {
		t.Errorf("row 1 counter = %d, want 12", v)
	}
	if v, _ := tl.Value(1, "cpu_mcq_occupancy"); v != 1 {
		t.Errorf("row 1 gauge = %d, want 1", v)
	}
	if _, err := tl.Value(0, "cpu_nope"); err == nil {
		t.Error("Value on unknown probe did not error")
	}
}

func TestSteadyStateUpdatesDoNotAllocate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cpu_insts_total")
	g := r.Gauge("cpu_mcq_occupancy")
	allocs := testing.AllocsPerRun(100, func() {
		c.Add(1)
		g.Set(5)
	})
	if allocs != 0 {
		t.Fatalf("probe updates allocated %.1f/op, want 0", allocs)
	}
}

func TestWriteAndValidateTraceEvents(t *testing.T) {
	r := NewRegistry()
	probes := []*Counter{
		r.Counter("cpu_insts_total"),
		r.Counter("cpu_checks_total"),
		r.Counter("mcu_bwb_hits_total"),
		r.Counter("mcu_bwb_misses_total"),
		r.Counter("hbt_resizes_total"),
	}
	occ := r.Gauge("cpu_mcq_occupancy")
	tl := NewTimeline(r, 64)
	for cyc := uint64(64); cyc <= 640; cyc += 64 {
		for i, p := range probes {
			p.Add(uint64(i) + cyc/64)
		}
		occ.Set(cyc % 48)
		tl.Sample(cyc, cyc/2)
	}
	tl.AddSlice("hbt_resize", 128, 300, map[string]uint64{"old_assoc": 8, "new_assoc": 16})
	tl.AddSlice("hbt_resize", 500, 0, nil) // zero dur clamps to 1

	var buf bytes.Buffer
	if err := tl.WriteTraceEvents(&buf, "test proc"); err != nil {
		t.Fatal(err)
	}
	st, err := ValidateTraceJSON(buf.Bytes())
	if err != nil {
		t.Fatalf("exporter output failed validation: %v\n%s", err, buf.String())
	}
	if len(st.CounterTracks) != 6 {
		t.Errorf("counter tracks = %v, want 6", st.CounterTracks)
	}
	if st.Slices != 2 || len(st.SliceNames) != 1 || st.SliceNames[0] != "hbt_resize" {
		t.Errorf("slices = %d names %v", st.Slices, st.SliceNames)
	}
	// Counters export as per-window deltas: the first cpu_insts_total
	// value is 1, the rest are 1 each window.
	if !strings.Contains(buf.String(), `"name": "cpu_insts_total"`) {
		t.Error("missing counter track for cpu_insts_total")
	}

	// Determinism: a second export is byte-identical.
	var buf2 bytes.Buffer
	if err := tl.WriteTraceEvents(&buf2, "test proc"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("trace export is not deterministic")
	}
}

func TestValidateTraceJSONRejects(t *testing.T) {
	cases := map[string]string{
		"not json":        `{`,
		"no traceEvents":  `{"displayTimeUnit":"ms"}`,
		"missing name":    `{"traceEvents":[{"ph":"C","ts":1,"pid":1,"tid":1,"args":{"value":1}}]}`,
		"missing ph":      `{"traceEvents":[{"name":"x_y","ts":1,"pid":1,"tid":1}]}`,
		"bad phase":       `{"traceEvents":[{"name":"x_y","ph":"B","ts":1,"pid":1,"tid":1}]}`,
		"counter no val":  `{"traceEvents":[{"name":"x_y","ph":"C","ts":1,"pid":1,"tid":1,"args":{}}]}`,
		"counter str val": `{"traceEvents":[{"name":"x_y","ph":"C","ts":1,"pid":1,"tid":1,"args":{"value":"v"}}]}`,
		"slice no dur":    `{"traceEvents":[{"name":"x_y","ph":"X","ts":1,"pid":1,"tid":1}]}`,
		"no pid":          `{"traceEvents":[{"name":"x_y","ph":"M","tid":1}]}`,
		"ts backwards": `{"traceEvents":[
			{"name":"x_y","ph":"C","ts":10,"pid":1,"tid":1,"args":{"value":1}},
			{"name":"x_y","ph":"C","ts":5,"pid":1,"tid":1,"args":{"value":1}}]}`,
	}
	for label, doc := range cases {
		if _, err := ValidateTraceJSON([]byte(doc)); err == nil {
			t.Errorf("%s: validation passed, want error", label)
		}
	}
}

func TestSummarize(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hbt_resizes_total")
	g := r.Gauge("cpu_mcq_occupancy")
	tl := NewTimeline(r, 10)
	c.Add(2)
	g.Set(9)
	tl.Sample(10, 5)
	c.Add(3)
	g.Set(4)
	tl.Sample(20, 11)
	tl.AddSlice("hbt_resize", 3, 7, nil)
	s := tl.Summarize()
	if s.Samples != 2 || s.Slices != 1 || s.Interval != 10 {
		t.Fatalf("summary shape: %+v", s)
	}
	if s.Final["hbt_resizes_total"] != 5 {
		t.Errorf("final counter = %d, want 5", s.Final["hbt_resizes_total"])
	}
	if s.Peak["cpu_mcq_occupancy"] != 9 {
		t.Errorf("peak gauge = %d, want 9", s.Peak["cpu_mcq_occupancy"])
	}
	var nilTL *Timeline
	if nilTL.Summarize() != nil {
		t.Error("nil timeline summary not nil")
	}
}

// TestWriteTraceFile: the file holds exactly WriteTraceEvents' document,
// the report is one "(validated)" line naming it, and a nil timeline
// fails without creating a file.
func TestWriteTraceFile(t *testing.T) {
	tl := mergeFixture(t)
	path := filepath.Join(t.TempDir(), "tl.json")
	var report bytes.Buffer
	if err := tl.WriteTraceFile(path, "proc", &report); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := tl.WriteTraceEvents(&want, "proc"); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("written file differs from WriteTraceEvents:\n%s\nvs\n%s", got, want.Bytes())
	}
	st, err := ValidateTraceJSON(got)
	if err != nil {
		t.Fatal(err)
	}
	line := fmt.Sprintf("timeline %s: %d events, %d counter tracks, %d slices (validated)\n",
		path, st.Events, len(st.CounterTracks), st.Slices)
	if report.String() != line {
		t.Errorf("report = %q, want %q", report.String(), line)
	}

	missing := filepath.Join(t.TempDir(), "nil.json")
	if err := (*Timeline)(nil).WriteTraceFile(missing, "proc", &report); err == nil {
		t.Error("nil timeline written without an error")
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Errorf("nil timeline left a file behind (stat: %v)", err)
	}
}
