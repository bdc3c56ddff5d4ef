package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aos/internal/experiments"
	"aos/internal/instrument"
	"aos/internal/telemetry"
)

// newTestServer builds a Server plus an httptest front end; both are torn
// down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		svc.Close(ctx)
	})
	return svc, ts
}

// stubRunSpec swaps the simulation entry point for the test's lifetime.
// The stub keeps the simple (ctx, spec) signature most tests want; the
// wrapper adapts it to the full entry point (no telemetry, no progress).
func stubRunSpec(t *testing.T, fn func(ctx context.Context, spec experiments.SimSpec) (*experiments.SimResult, error)) {
	t.Helper()
	stubRunSpecFull(t, func(ctx context.Context, spec experiments.SimSpec, _ experiments.RunConfig) (*experiments.SimResult, *telemetry.Timeline, error) {
		res, err := fn(ctx, spec)
		return res, nil, err
	})
}

// stubRunSpecFull swaps the full simulation entry point (telemetry and
// progress config included) for the test's lifetime.
func stubRunSpecFull(t *testing.T, fn func(ctx context.Context, spec experiments.SimSpec, cfg experiments.RunConfig) (*experiments.SimResult, *telemetry.Timeline, error)) {
	t.Helper()
	orig := runSpecFull
	runSpecFull = fn
	t.Cleanup(func() { runSpecFull = orig })
}

// fakeResult builds a deterministic synthetic result for a spec, with
// per-scheme cycle/traffic ratios so figure normalization is predictable.
func fakeResult(spec experiments.SimSpec) *experiments.SimResult {
	ratios := map[string]uint64{
		instrument.Baseline.String(): 100,
		instrument.Watchdog.String(): 170,
		instrument.PA.String():       112,
		instrument.AOS.String():      108,
		instrument.PAAOS.String():    119,
	}
	r := ratios[spec.Scheme]
	return &experiments.SimResult{
		Spec:         spec,
		Cycles:       10 * r,
		Instructions: spec.Instructions,
		TrafficBytes: 1000 * r,
		HeapAllocs:   42,
	}
}

func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, jobDoc) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc jobDoc
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("bad job doc %s: %v", raw, err)
		}
	}
	return resp, doc
}

// pollJob polls GET /v1/jobs/{id} until the job leaves queued/running.
func pollJob(t *testing.T, ts *httptest.Server, id string) jobDoc {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var doc jobDoc
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if doc.Status != statusQueued && doc.Status != statusRunning {
			return doc
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return jobDoc{}
}

func getMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return string(b)
}

// metricValue extracts a sample value from Prometheus text exposition.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v float64
			if _, err := fmt.Sscanf(line[len(name)+1:], "%g", &v); err != nil {
				t.Fatalf("bad sample %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s missing from:\n%s", name, text)
	return 0
}

// TestSubmitPollCachedResubmit is the acceptance path: a real (tiny)
// simulation is submitted, polled to completion, and resubmitted — the
// resubmit must return byte-identical cached bytes without re-running,
// and /metrics must report the cache hit.
func TestSubmitPollCachedResubmit(t *testing.T) {
	var runs atomic.Int64
	stubRunSpec(t, func(ctx context.Context, spec experiments.SimSpec) (*experiments.SimResult, error) {
		runs.Add(1)
		return experiments.RunSpec(ctx, spec)
	})
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})

	const body = `{"benchmark": "mcf", "scheme": "AOS", "instructions": 15000}`
	resp, doc := postJob(t, ts, body)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	if doc.ID == "" || doc.Spec.Seed != 1 {
		t.Fatalf("job doc = %+v", doc)
	}
	done := pollJob(t, ts, doc.ID)
	if done.Status != statusDone {
		t.Fatalf("job finished %s (%s)", done.Status, done.Error)
	}
	if len(done.Result) == 0 {
		t.Fatal("done job has no result")
	}
	if runs.Load() != 1 {
		t.Fatalf("%d simulations for one job", runs.Load())
	}

	// Resubmit the identical spec: cached, byte-identical, no second run.
	resp2, doc2 := postJob(t, ts, body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resubmit status = %d, want 200", resp2.StatusCode)
	}
	if !doc2.Cached {
		t.Error("resubmit not marked cached")
	}
	if !bytes.Equal(doc2.Result, done.Result) {
		t.Fatalf("cached result differs:\n%s\n%s", doc2.Result, done.Result)
	}
	if runs.Load() != 1 {
		t.Fatalf("resubmit re-ran the simulation (%d runs)", runs.Load())
	}

	// The synchronous endpoint serves the raw cached bytes on a hit; two
	// hits must be byte-identical (jobDoc responses re-indent the embedded
	// result, so compare those in compact form).
	fetch := func() (string, []byte) {
		rresp, err := http.Get(ts.URL + "/v1/results?benchmark=mcf&scheme=AOS&insts=15000")
		if err != nil {
			t.Fatal(err)
		}
		defer rresp.Body.Close()
		b, _ := io.ReadAll(rresp.Body)
		return rresp.Header.Get("X-Cache"), b
	}
	xc, raw1 := fetch()
	if xc != "hit" {
		t.Errorf("X-Cache = %q, want hit", xc)
	}
	_, raw2 := fetch()
	if !bytes.Equal(raw1, raw2) {
		t.Fatalf("cache hits not byte-identical:\n%s\n%s", raw1, raw2)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, done.Result); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw1, compact.Bytes()) {
		t.Fatalf("/v1/results bytes differ from the job result:\n%s\n%s", raw1, compact.Bytes())
	}
	if runs.Load() != 1 {
		t.Fatalf("results endpoint re-ran the simulation (%d runs)", runs.Load())
	}

	m := getMetrics(t, ts)
	if hits := metricValue(t, m, "aosd_cache_hits_total"); hits < 2 {
		t.Errorf("aosd_cache_hits_total = %g, want >= 2", hits)
	}
	if v := metricValue(t, m, `aosd_jobs_total{status="done"}`); v != 1 {
		t.Errorf(`aosd_jobs_total{status="done"} = %g, want 1`, v)
	}
	if v := metricValue(t, m, "aosd_job_wall_seconds_count"); v != 1 {
		t.Errorf("wall histogram count = %g, want 1", v)
	}
}

func TestSubmitValidation(t *testing.T) {
	stubRunSpec(t, func(ctx context.Context, spec experiments.SimSpec) (*experiments.SimResult, error) {
		return fakeResult(spec), nil
	})
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, MaxInstructions: 100_000})

	for name, body := range map[string]string{
		"bad json":          `{`,
		"unknown field":     `{"benchmark": "mcf", "scheme": "AOS", "bogus": 1}`,
		"unknown benchmark": `{"benchmark": "nonesuch", "scheme": "AOS"}`,
		"unknown scheme":    `{"benchmark": "mcf", "scheme": "nonesuch"}`,
		"over budget limit": `{"benchmark": "mcf", "scheme": "AOS", "instructions": 200000}`,
	} {
		resp, _ := postJob(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/no-such-id")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status = %d, want 404", resp.StatusCode)
	}
}

// TestBackpressure429 saturates a 1-worker, 1-slot queue and expects the
// third submission to be refused with 429 + Retry-After, then accepted
// once the queue drains.
func TestBackpressure429(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	stubRunSpec(t, func(ctx context.Context, spec experiments.SimSpec) (*experiments.SimResult, error) {
		started <- spec.Benchmark
		select {
		case <-release:
			return fakeResult(spec), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	submit := func(bench string) int {
		resp, _ := postJob(t, ts, fmt.Sprintf(`{"benchmark": %q, "scheme": "AOS", "instructions": 1000}`, bench))
		return resp.StatusCode
	}

	if code := submit("mcf"); code != http.StatusAccepted {
		t.Fatalf("first submit = %d", code)
	}
	<-started // the only worker is now busy with mcf
	if code := submit("gcc"); code != http.StatusAccepted {
		t.Fatalf("second submit = %d", code)
	}
	// Worker busy + queue slot taken: the next distinct spec must bounce.
	resp, _ := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"benchmark": "milc", "scheme": "AOS", "instructions": 1000}`))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}
	m := getMetrics(t, ts)
	if v := metricValue(t, m, "aosd_queue_depth"); v != 1 {
		t.Errorf("queue depth = %g, want 1", v)
	}
	if v := metricValue(t, m, "aosd_inflight_jobs"); v != 1 {
		t.Errorf("inflight = %g, want 1", v)
	}

	close(release)
	<-started // gcc reaches the worker
	deadline := time.Now().Add(10 * time.Second)
	for {
		if code := submit("milc"); code == http.StatusAccepted || code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never drained")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSchemeSpecValidation covers the scheme-input paths through the
// spec decoder: raw ordinals are accepted when in range (and normalized
// to the canonical name), rejected with a 400 when out of range, and
// names parse case-insensitively.
func TestSchemeSpecValidation(t *testing.T) {
	stubRunSpec(t, func(_ context.Context, spec experiments.SimSpec) (*experiments.SimResult, error) {
		return fakeResult(spec), nil
	})
	_, ts := newTestServer(t, Config{Workers: 1})

	resp, doc := postJob(t, ts, `{"benchmark": "mcf", "scheme": 3, "instructions": 1000}`)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("in-range ordinal submit = %d", resp.StatusCode)
	}
	if doc.Spec.Scheme != instrument.AOS.String() {
		t.Errorf("ordinal 3 normalized to %q, want %q", doc.Spec.Scheme, instrument.AOS.String())
	}

	resp, doc = postJob(t, ts, `{"benchmark": "mcf", "scheme": "pa+aos", "instructions": 1000}`)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("lower-case name submit = %d", resp.StatusCode)
	}
	if doc.Spec.Scheme != instrument.PAAOS.String() {
		t.Errorf("\"pa+aos\" normalized to %q, want %q", doc.Spec.Scheme, instrument.PAAOS.String())
	}

	// Out of range: one past the last registered scheme must bounce with a
	// spec error, not flow through as Scheme(n) and misrender.
	bad := fmt.Sprintf(`{"benchmark": "mcf", "scheme": %d, "instructions": 1000}`, len(instrument.AllSchemes()))
	r2, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r2.Body)
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range ordinal = %d, want 400 (body %s)", r2.StatusCode, body)
	}
	if !strings.Contains(string(body), "out of range") {
		t.Errorf("400 body %s does not name the range error", body)
	}
}

// TestExperimentBackpressure429: a saturated queue bounces the
// figure-composition endpoints too, and the Retry-After hint scales
// with the backlog instead of always saying 1.
func TestExperimentBackpressure429(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	stubRunSpec(t, func(ctx context.Context, spec experiments.SimSpec) (*experiments.SimResult, error) {
		started <- spec.Benchmark
		select {
		case <-release:
			return fakeResult(spec), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	if resp, _ := postJob(t, ts, `{"benchmark": "mcf", "scheme": "AOS", "instructions": 1000}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d", resp.StatusCode)
	}
	<-started // the only worker is now busy with mcf
	if resp, _ := postJob(t, ts, `{"benchmark": "gcc", "scheme": "AOS", "instructions": 1000}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit = %d", resp.StatusCode)
	}

	// Worker busy + queue slot taken: composing a figure must bounce on
	// its first cell submission.
	resp, err := http.Get(ts.URL + "/v1/experiments/fig14?insts=1000")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated experiment GET = %d, want 429", resp.StatusCode)
	}
	// Queue full (1/1): the hint must reflect the backlog, not the old
	// hardcoded "1".
	if got := resp.Header.Get("Retry-After"); got != "30" {
		t.Errorf("Retry-After = %q, want 30 with a full queue", got)
	}

	close(release)
}

// TestClientDisconnectCancels: abandoning a synchronous /v1/results wait
// cancels the underlying job (no other waiters, not pinned).
func TestClientDisconnectCancels(t *testing.T) {
	started := make(chan struct{}, 1)
	stubRunSpec(t, func(ctx context.Context, spec experiments.SimSpec) (*experiments.SimResult, error) {
		started <- struct{}{}
		<-ctx.Done() // hold the worker until the client abandons us
		return nil, ctx.Err()
	})
	svc, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	reqCtx, cancelReq := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(reqCtx, http.MethodGet,
		ts.URL+"/v1/results?benchmark=mcf&scheme=AOS&insts=1000", nil)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	<-started // the job is running and the client is waiting
	cancelReq()
	if err := <-errc; err == nil {
		t.Fatal("canceled request succeeded")
	}

	spec, err := (experiments.SimSpec{Benchmark: "mcf", Scheme: "AOS", Instructions: 1000}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	doc := pollJob(t, ts, spec.Hash())
	if doc.Status != statusCanceled {
		t.Fatalf("abandoned job ended %s (%s), want canceled", doc.Status, doc.Error)
	}
	m := getMetrics(t, ts)
	if v := metricValue(t, m, `aosd_jobs_total{status="canceled"}`); v != 1 {
		t.Errorf(`canceled jobs = %g, want 1`, v)
	}

	// A fresh submit of the same spec replaces the canceled job.
	release := make(chan struct{})
	close(release)
	stubRunSpec(t, func(ctx context.Context, spec experiments.SimSpec) (*experiments.SimResult, error) {
		return fakeResult(spec), nil
	})
	resp, doc2 := postJob(t, ts, `{"benchmark": "mcf", "scheme": "AOS", "instructions": 1000}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit of canceled job = %d", resp.StatusCode)
	}
	if final := pollJob(t, ts, doc2.ID); final.Status != statusDone {
		t.Fatalf("replacement job ended %s", final.Status)
	}
	_ = svc
}

// TestJobTimeout: a job exceeding Config.JobTimeout finishes canceled.
func TestJobTimeout(t *testing.T) {
	stubRunSpec(t, func(ctx context.Context, spec experiments.SimSpec) (*experiments.SimResult, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, JobTimeout: 30 * time.Millisecond})

	_, doc := postJob(t, ts, `{"benchmark": "mcf", "scheme": "AOS", "instructions": 1000}`)
	if final := pollJob(t, ts, doc.ID); final.Status != statusCanceled {
		t.Fatalf("timed-out job ended %s", final.Status)
	}
}

// TestFig14Endpoint composes the full 16x5 figure from synthetic cells and
// verifies the second request is served entirely from cache.
func TestFig14Endpoint(t *testing.T) {
	var runs atomic.Int64
	stubRunSpec(t, func(ctx context.Context, spec experiments.SimSpec) (*experiments.SimResult, error) {
		runs.Add(1)
		return fakeResult(spec), nil
	})
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 8})

	get := func() figDoc {
		resp, err := http.Get(ts.URL + "/v1/experiments/fig14?insts=1000")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("fig14 status = %d: %s", resp.StatusCode, b)
		}
		var doc figDoc
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		return doc
	}

	doc := get()
	nBench := len(experiments.MatrixBenchmarks())
	nCells := nBench * len(instrument.Schemes())
	if doc.Cells != nCells || len(doc.Rows) != nBench {
		t.Fatalf("cells = %d rows = %d, want %d/%d", doc.Cells, len(doc.Rows), nCells, nBench)
	}
	if runs.Load() != int64(nCells) {
		t.Fatalf("%d simulations for %d cells", runs.Load(), nCells)
	}
	for _, row := range doc.Rows {
		if row.Normalized[instrument.Baseline.String()] != 1 {
			t.Fatalf("%s baseline normalized to %g", row.Benchmark, row.Normalized[instrument.Baseline.String()])
		}
		// fakeResult: AOS/Baseline = 108/100 for every benchmark.
		if got := row.Normalized[instrument.AOS.String()]; got != 1.08 {
			t.Fatalf("%s AOS normalized = %g, want 1.08", row.Benchmark, got)
		}
	}
	if got := doc.Geomean[instrument.AOS.String()]; got < 1.079 || got > 1.081 {
		t.Fatalf("AOS geomean = %g, want ~1.08", got)
	}
	if _, ok := doc.Geomean[instrument.Baseline.String()]; ok {
		t.Error("geomean includes the baseline itself")
	}

	// Warm daemon: the same figure again touches no simulator.
	doc2 := get()
	if runs.Load() != int64(nCells) {
		t.Fatalf("warm fig14 re-ran cells (%d runs)", runs.Load())
	}
	if doc2.CachedCells != nCells {
		t.Errorf("cached_cells = %d, want %d", doc2.CachedCells, nCells)
	}

	// fig18 normalizes traffic with the same ratios.
	resp, err := http.Get(ts.URL + "/v1/experiments/fig18?insts=1000")
	if err != nil {
		t.Fatal(err)
	}
	var doc18 figDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc18); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if doc18.CachedCells != nCells {
		t.Errorf("fig18 cached_cells = %d, want %d (shares fig14's cells)", doc18.CachedCells, nCells)
	}

	// Guard rails: unknown figure and fixed-parameter override.
	for url, want := range map[string]int{
		"/v1/experiments/fig99":               http.StatusNotFound,
		"/v1/experiments/fig14?benchmark=mcf": http.StatusBadRequest,
	} {
		resp, err := http.Get(ts.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s: status = %d, want %d", url, resp.StatusCode, want)
		}
	}
}

// TestFigureEndpointsMatchExperiments ties aosd's figures to aosbench's:
// with real simulations, the fig14 and fig18 endpoints must report exactly
// the normalized values and geomeans experiments.Fig14 and Fig18 compute
// over RunMatrix at the same budget and seed.
func TestFigureEndpointsMatchExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("two matrix runs")
	}
	const insts = 4000
	m, err := experiments.RunMatrix(experiments.Options{Instructions: insts, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 128})
	for _, f := range []struct {
		fig    string
		derive func(*experiments.Matrix) (*experiments.Table, error)
	}{{"fig14", experiments.Fig14}, {"fig18", experiments.Fig18}} {
		fig := f.fig
		want, err := f.derive(m)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get(fmt.Sprintf("%s/v1/experiments/%s?insts=%d", ts.URL, fig, insts))
		if err != nil {
			t.Fatal(err)
		}
		var doc figDoc
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %v", fig, resp.StatusCode, err)
		}
		if len(doc.Rows) != len(want.Rows) {
			t.Fatalf("%s: %d rows, want %d", fig, len(doc.Rows), len(want.Rows))
		}
		for i, row := range want.Rows {
			got := doc.Rows[i]
			if got.Benchmark != row.Name || len(got.Normalized) != len(want.Columns) {
				t.Fatalf("%s row %d: %+v, want %s over %v", fig, i, got, row.Name, want.Columns)
			}
			for c, label := range want.Columns {
				if got.Normalized[label] != row.Values[c] {
					t.Errorf("%s %s/%s: aosd %v, aosbench %v", fig, row.Name, label, got.Normalized[label], row.Values[c])
				}
			}
		}
		if g := want.Geomeans(); !reflect.DeepEqual(doc.Geomean, g) {
			t.Errorf("%s geomeans: aosd %v, aosbench %v", fig, doc.Geomean, g)
		}
	}
}

// TestDiskCacheSurvivesRestart: a second server over the same -cachedir
// answers from disk without re-running.
func TestDiskCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	var runs atomic.Int64
	stub := func(ctx context.Context, spec experiments.SimSpec) (*experiments.SimResult, error) {
		runs.Add(1)
		return fakeResult(spec), nil
	}

	stubRunSpec(t, stub)
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, CacheDir: dir})
	_, doc := postJob(t, ts, `{"benchmark": "mcf", "scheme": "AOS", "instructions": 1000}`)
	first := pollJob(t, ts, doc.ID)
	if first.Status != statusDone {
		t.Fatalf("job ended %s", first.Status)
	}
	ts.Close()

	_, ts2 := newTestServer(t, Config{Workers: 1, QueueDepth: 4, CacheDir: dir})
	resp, doc2 := postJob(t, ts2, `{"benchmark": "mcf", "scheme": "AOS", "instructions": 1000}`)
	if resp.StatusCode != http.StatusOK || !doc2.Cached {
		t.Fatalf("restart resubmit: status = %d cached = %v", resp.StatusCode, doc2.Cached)
	}
	if !bytes.Equal(doc2.Result, first.Result) {
		t.Fatalf("restart result differs:\n%s\n%s", doc2.Result, first.Result)
	}
	if runs.Load() != 1 {
		t.Fatalf("restart re-ran the simulation (%d runs)", runs.Load())
	}
}

func TestHealthz(t *testing.T) {
	stubRunSpec(t, func(ctx context.Context, spec experiments.SimSpec) (*experiments.SimResult, error) {
		return fakeResult(spec), nil
	})
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc["status"] != "ok" {
		t.Errorf("healthz doc = %v", doc)
	}
}

// TestCloseDrains: Close with a generous deadline lets queued jobs finish.
func TestCloseDrains(t *testing.T) {
	var runs atomic.Int64
	stubRunSpec(t, func(ctx context.Context, spec experiments.SimSpec) (*experiments.SimResult, error) {
		runs.Add(1)
		time.Sleep(10 * time.Millisecond)
		return fakeResult(spec), nil
	})
	svc, err := New(Config{Workers: 1, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	specs := []string{"mcf", "gcc", "milc"}
	for _, b := range specs {
		spec, err := (experiments.SimSpec{Benchmark: b, Scheme: "AOS", Instructions: 1000}).Normalize()
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := svc.getOrSubmit(spec, true, nil); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	svc.Close(ctx)
	if runs.Load() != int64(len(specs)) {
		t.Fatalf("drain completed %d of %d jobs", runs.Load(), len(specs))
	}
}
