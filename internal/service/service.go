// Package service is the aosd serving layer: a stdlib-only JSON HTTP API
// that turns the one-shot evaluation harness into a queryable, memoized
// simulation service. Jobs (benchmark, scheme, budget, seed, sanitize)
// are scheduled on a persistent internal/runner pool behind a bounded
// queue with explicit backpressure (429 + Retry-After when full), and
// results are memoized in a content-addressed cache keyed by the SHA-256
// of the spec's canonical JSON (internal/experiments.SimSpec). Because
// simulations are pure functions of their spec, a warm cache answers
// repeat requests — including whole-figure compositions — without
// re-simulating anything.
//
// Endpoints:
//
//	POST /v1/jobs                  submit a spec; 202 while scheduled, 200 from cache
//	GET  /v1/jobs/{id}             poll a job (id = spec hash)
//	GET  /v1/jobs/{id}/events      SSE progress stream
//	GET  /v1/jobs/{id}/trace       merged Perfetto doc: job spans + sim timeline
//	GET  /v1/traces/{id}           span tree of any recent trace
//	GET  /v1/results?...           synchronous cached lookup (runs on miss)
//	GET  /v1/experiments/fig14     figure composed from per-cell cached results
//	GET  /v1/experiments/fig18     traffic figure, same cells
//	GET  /healthz                  liveness
//	GET  /metrics                  Prometheus text exposition (incl. per-endpoint SLO series)
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"aos/internal/experiments"
	"aos/internal/instrument"
	"aos/internal/runner"
	"aos/internal/telemetry"
	"aos/internal/tracespan"
)

// Job lifecycle states.
const (
	statusQueued   = "queued"
	statusRunning  = "running"
	statusDone     = "done"
	statusFailed   = "failed"
	statusCanceled = "canceled"
)

// runSpecFull is the simulation entry point, indirected so tests can
// inject slow, counting or panicking run bodies.
var runSpecFull = experiments.RunSpecFull

// Config sizes the service.
type Config struct {
	// Workers bounds concurrent simulations (<= 0 uses GOMAXPROCS).
	Workers int
	// QueueDepth bounds the pending-job queue (<= 0 uses 64). A full
	// queue is surfaced as HTTP 429 with a Retry-After hint.
	QueueDepth int
	// CacheBytes is the in-memory result-cache budget (<= 0 uses 64 MiB).
	CacheBytes int64
	// CacheDir, when non-empty, spills every result to disk so the cache
	// survives restarts and memory-pressure evictions.
	CacheDir string
	// JobTimeout caps each job's run time (0 = unlimited). Timed-out jobs
	// finish as canceled.
	JobTimeout time.Duration
	// MaxInstructions rejects specs whose normalized instruction budget
	// exceeds it (0 = unlimited) — the service's overload guard against
	// full-paper-scale runs on an interactive daemon.
	MaxInstructions uint64
	// TelemetryInterval attaches the flight recorder to every fresh run
	// (commit-cycle sampling cadence; 0 disables). Sampled jobs carry a
	// telemetry summary in their job document; results themselves are
	// byte-identical either way, so cache entries stay address-stable.
	TelemetryInterval uint64
	// Logger receives the service's structured logs; every job-scoped
	// record carries the job's correlation ID. Nil discards.
	Logger *slog.Logger
	// Tracing enables the distributed-tracing layer: W3C traceparent
	// propagation at the HTTP edge and per-job span trees (queue wait,
	// cache lookup, execution, composition) served as Perfetto documents
	// from /v1/jobs/{id}/trace and /v1/traces/{id}. Disabled (false),
	// the instrumentation is a nil-pointer no-op: results are
	// byte-identical and the span call sites never allocate.
	Tracing bool
	// SLOAvailability is the availability objective the error-budget
	// burn gauges are computed against (0 uses 0.99). Availability
	// counts 5xx responses as errors; shed load (429) is not an error.
	SLOAvailability float64
}

// job is one scheduled simulation, identified by its spec hash. Fields
// after the immutable header are guarded by Server.mu.
type job struct {
	id   string
	spec experiments.SimSpec

	status  string
	errMsg  string
	result  []byte // canonical SimResult JSON when done
	wall    time.Duration
	summary *telemetry.Summary // per-job flight-recorder digest (sampled runs)
	done    chan struct{}
	cancel  context.CancelFunc
	refs    int  // live sync waiters
	pinned  bool // an async submitter wants the result regardless of waiters

	// events streams lifecycle and instruction progress to SSE
	// subscribers (nil for jobs materialized from cache). finish
	// guards the terminal transition — publish the done frame, close
	// events, close done — so a panicking run body and the normal
	// path can never double-close.
	events *broadcaster
	finish sync.Once

	// trace is the job's span tree (nil with tracing off — every span
	// call site is then a no-op); queueSpan is the admission-to-worker
	// wait span, open from submission until runJob starts. timeline is
	// the run's flight-recorder timeline when telemetry was on, kept so
	// /v1/jobs/{id}/trace can merge spans and sim slices.
	trace     *tracespan.Trace
	queueSpan *tracespan.Span
	timeline  *telemetry.Timeline
}

// Server is the aosd daemon core, embeddable in tests via Handler.
type Server struct {
	cfg     Config
	pool    *runner.Pool
	cache   *Cache
	metrics *metrics
	mux     *http.ServeMux

	baseCtx    context.Context
	baseCancel context.CancelFunc
	log        *slog.Logger
	start      time.Time

	mu   sync.Mutex
	jobs map[string]*job
	// traces is the recent-trace ring (trace.go): traceIDs keeps FIFO
	// order for eviction at maxTraces.
	traces   map[string]*tracespan.Trace
	traceIDs []string
}

// New builds a Server (starting its worker pool) from cfg.
func New(cfg Config) (*Server, error) {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	cache, err := NewCache(cfg.CacheBytes, cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	baseCtx, baseCancel := context.WithCancel(context.Background())
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Server{
		cfg:        cfg,
		pool:       runner.NewPool(cfg.Workers, cfg.QueueDepth),
		cache:      cache,
		metrics:    &metrics{sloObjective: cfg.SLOAvailability},
		baseCtx:    baseCtx,
		baseCancel: baseCancel,
		log:        logger,
		start:      time.Now(),
		jobs:       make(map[string]*job),
	}
	// Pool workers bracket every task with records carrying the job's
	// correlation id, continuing the trail the service layer starts.
	s.pool.SetLogger(logger)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.route("submit", s.handleSubmit))
	mux.HandleFunc("GET /v1/jobs/{id}", s.route("job", s.handleJob))
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.route("events", s.handleJobEvents))
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.route("job_trace", s.handleJobTrace))
	mux.HandleFunc("GET /v1/traces/{id}", s.route("trace", s.handleTraceByID))
	mux.HandleFunc("GET /v1/results", s.route("results", s.handleResults))
	mux.HandleFunc("GET /v1/experiments/{fig}", s.route("experiment", s.handleExperiment))
	mux.HandleFunc("GET /healthz", s.route("healthz", s.handleHealthz))
	mux.HandleFunc("GET /metrics", s.route("metrics", s.handleMetrics))
	s.mux = mux
	return s, nil
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Close drains the service: no new tasks are accepted and queued plus
// in-flight jobs run to completion. If ctx expires first, the remaining
// jobs are canceled and Close waits for the workers to observe it.
func (s *Server) Close(ctx context.Context) {
	done := make(chan struct{})
	go func() { s.pool.Close(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		s.baseCancel() // cancel every job context; bodies return promptly
		<-done
	}
	s.baseCancel()
}

// CacheStats exposes the cache counters (smoke tests, introspection).
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// ---------- scheduling ----------

// normalize validates a spec against the service limits.
func (s *Server) normalize(spec experiments.SimSpec) (experiments.SimSpec, error) {
	spec, err := spec.Normalize()
	if err != nil {
		return spec, err
	}
	if s.cfg.MaxInstructions > 0 && spec.Instructions > s.cfg.MaxInstructions {
		return spec, fmt.Errorf("spec: instruction budget %d exceeds the service limit %d (pass a smaller \"instructions\")",
			spec.Instructions, s.cfg.MaxInstructions)
	}
	return spec, nil
}

// getOrSubmit returns the job for a normalized spec, scheduling a fresh
// one when none is live; fresh reports whether this call scheduled it.
// pinned marks an async submitter (POST /v1/jobs): the job then runs to
// completion even with no waiter attached. A cached result short-circuits
// into an already-done job. Failed or canceled jobs are replaced on
// resubmission (retry semantics). The caller must pair a non-pinned
// acquisition with release().
//
// tr, when non-nil, is the submitting request's trace: the admission
// decision is recorded as a cache-lookup span (hit attribute included),
// and a freshly scheduled job adopts the trace — its queue wait and
// execution spans then land in the same tree. The first submitter's
// trace wins; joins of a live job only record their lookup span.
func (s *Server) getOrSubmit(spec experiments.SimSpec, pinned bool, tr *tracespan.Trace) (j *job, fresh bool, err error) {
	id := spec.Hash()
	s.mu.Lock()
	defer s.mu.Unlock()
	lookup := tr.StartSpan("service_cache_lookup")
	defer lookup.End()
	if j, ok := s.jobs[id]; ok && j.status != statusFailed && j.status != statusCanceled {
		if j.status == statusDone {
			// Route the lookup through the cache so the hit is counted
			// and the entry's LRU position refreshed; the cache holds the
			// same bytes runJob stored (the job keeps its own copy in
			// case the entry was evicted meanwhile).
			if b, hit := s.cache.Get(id); hit {
				j.result = b
			}
		}
		lookup.SetAttr("hit", 1)
		lookup.SetAttrStr("job", id)
		if pinned {
			j.pinned = true
		} else {
			j.refs++
		}
		return j, false, nil
	}
	if b, ok := s.cache.Get(id); ok {
		lookup.SetAttr("hit", 1)
		lookup.SetAttrStr("job", id)
		j := &job{id: id, spec: spec, status: statusDone, result: b, done: make(chan struct{})}
		close(j.done)
		s.jobs[id] = j
		return j, false, nil
	}
	lookup.SetAttr("hit", 0)
	lookup.SetAttrStr("job", id)
	ctx, cancel := context.WithCancel(s.baseCtx)
	if s.cfg.JobTimeout > 0 {
		inner := ctx
		var tcancel context.CancelFunc
		inner, tcancel = context.WithTimeout(inner, s.cfg.JobTimeout)
		prev := cancel
		cancel = func() { tcancel(); prev() }
		ctx = inner
	}
	j = &job{id: id, spec: spec, status: statusQueued, done: make(chan struct{}), cancel: cancel, pinned: pinned,
		events: newBroadcaster(s.metrics.observeSSEDrop), trace: tr}
	j.queueSpan = tr.StartSpan("service_queue_wait")
	if !pinned {
		j.refs = 1
	}
	if err := s.pool.Submit(runner.Task{
		ID:    id,
		Label: spec.Benchmark + "/" + spec.Scheme,
		Ctx:   ctx,
		Run:   func(ctx context.Context) { s.runJob(ctx, j) },
	}); err != nil {
		cancel()
		j.queueSpan.End()
		return nil, false, err
	}
	s.jobs[id] = j
	return j, true, nil
}

// release detaches a sync waiter. When the last waiter leaves an unpinned,
// unfinished job, its context is canceled: nobody wants the result, so the
// worker (or the queue slot) is handed back — the client-abandon path.
func (s *Server) release(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.refs > 0 {
		j.refs--
	}
	if j.refs == 0 && !j.pinned && j.status != statusDone && j.status != statusFailed && j.status != statusCanceled {
		j.cancel()
	}
}

// jobLogger returns the job-scoped logger: every record carries the
// job's correlation ID (the spec hash) plus its identity fields.
func (s *Server) jobLogger(j *job) *slog.Logger {
	return s.log.With("job", j.id, "benchmark", j.spec.Benchmark, "scheme", j.spec.Scheme)
}

// runJob is the pool task body: run the simulation, cache and record the
// outcome, wake the waiters. A panicking run body is converted into a
// failed job here — the finish guard closes the done channel and the
// event stream exactly once, so waiters and SSE subscribers never hang
// behind a crashed simulation.
func (s *Server) runJob(ctx context.Context, j *job) {
	log := s.jobLogger(j)
	s.mu.Lock()
	j.status = statusRunning
	queueSpan := j.queueSpan
	s.mu.Unlock()
	queueSpan.End() // admission-to-worker wait is over
	j.events.publish(jobEvent{Type: "status", Status: statusRunning})
	log.Info("job started", "instructions", j.spec.Instructions, "seed", j.spec.Seed)

	execSpan := j.trace.StartSpan("runner_execute")
	execSpan.SetAttrStr("benchmark", j.spec.Benchmark)
	execSpan.SetAttrStr("scheme", j.spec.Scheme)

	start := time.Now()
	defer func() {
		if v := recover(); v != nil {
			s.metrics.observePanic()
			log.Error("job panicked", "panic", fmt.Sprint(v))
			s.finishJob(j, statusFailed, fmt.Sprintf("internal error: job panicked: %v", v),
				nil, time.Since(start), 0, nil, nil)
		}
	}()

	runSpan := j.trace.StartSpan("experiments_run")
	res, tl, err := runSpecFull(ctx, j.spec, experiments.RunConfig{
		TelemetryInterval: s.cfg.TelemetryInterval,
		JobID:             j.id,
		OnProgress: func(done, total uint64) {
			ev := jobEvent{Type: "progress", Done: done, Total: total}
			if total > 0 {
				ev.Percent = 100 * float64(done) / float64(total)
			}
			j.events.publish(ev)
			s.metrics.observeProgress()
		},
	})
	runSpan.End()
	wall := time.Since(start)

	status := statusDone
	var msg string
	var body []byte
	var cycles uint64
	if err != nil {
		status = statusFailed
		if ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			status = statusCanceled
		}
		msg = err.Error()
	} else if body, err = res.JSON(); err != nil {
		status = statusFailed
		msg = err.Error()
	} else {
		s.cache.Put(j.id, body)
		cycles = res.Cycles
	}
	execSpan.SetAttrStr("status", status)
	execSpan.SetAttr("cycles", cycles)
	sum := tl.Summarize()
	if sum != nil {
		s.metrics.observeTelemetry(sum.Samples)
	}
	s.finishJob(j, status, msg, body, wall, cycles, sum, tl)
	if j.trace != nil {
		log = log.With("trace", j.trace.TraceID().String())
	}
	switch status {
	case statusDone:
		log.Info("job finished", "wall", wall, "cycles", cycles)
	default:
		log.Warn("job "+status, "wall", wall, "error", msg)
	}
}

// finishJob records a job's terminal state and wakes everyone exactly
// once: sync waiters via the done channel, SSE subscribers via the
// terminal event frame. Safe to reach from both the normal path and
// the panic recovery path.
func (s *Server) finishJob(j *job, status, msg string, body []byte, wall time.Duration, cycles uint64, sum *telemetry.Summary, tl *telemetry.Timeline) {
	s.mu.Lock()
	j.status = status
	j.errMsg = msg
	j.result = body
	j.wall = wall
	j.summary = sum
	if tl != nil {
		j.timeline = tl
	}
	if j.cancel != nil {
		j.cancel() // release the timeout timer
	}
	s.mu.Unlock()
	// Sweep open spans (panic and cancellation paths cannot be trusted
	// to End cleanly) so the exported tree never carries open spans.
	j.trace.EndOpen()
	s.metrics.observeJob(status, wall, cycles)
	j.finish.Do(func() {
		j.events.publish(jobEvent{Type: "done", Status: status, Error: msg, WallSeconds: wall.Seconds()})
		j.events.close()
		close(j.done)
	})
}

// snapshot copies a job's mutable state under the lock.
func (s *Server) snapshot(j *job) (status, errMsg string, result []byte, wall time.Duration, sum *telemetry.Summary) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.status, j.errMsg, j.result, j.wall, j.summary
}

// ---------- HTTP plumbing ----------

type jobDoc struct {
	ID          string              `json:"id"`
	Spec        experiments.SimSpec `json:"spec"`
	Status      string              `json:"status"`
	Cached      bool                `json:"cached,omitempty"`
	Error       string              `json:"error,omitempty"`
	WallSeconds float64             `json:"wall_seconds,omitempty"`
	Result      json.RawMessage     `json:"result,omitempty"`
	// Telemetry is the flight-recorder digest for sampled fresh runs
	// (absent when telemetry is off or the result came from cache).
	Telemetry *telemetry.Summary `json:"telemetry,omitempty"`
	// TraceID identifies the job's span tree when tracing is on; fetch
	// the merged Perfetto document from /v1/jobs/{id}/trace.
	TraceID string `json:"trace_id,omitempty"`
}

// jobTraceID snapshots the job's trace id, "" when untraced.
func (s *Server) jobTraceID(j *job) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.trace == nil {
		return ""
	}
	return j.trace.TraceID().String()
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeBackpressure is the explicit 429 path for a saturated queue. The
// Retry-After hint scales with how backed up the queue is — a client
// bouncing off a briefly-full queue retries in a second, one hitting a
// deeply backlogged server backs off proportionally (capped at 30 s).
func (s *Server) writeBackpressure(w http.ResponseWriter) {
	retry := 1
	if depth := s.cfg.QueueDepth; depth > 0 {
		retry += 29 * s.pool.Queued() / depth
		if retry > 30 {
			retry = 30
		}
	}
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	writeError(w, http.StatusTooManyRequests, "job queue full; retry later")
}

// buildInfo resolves the serving binary's identity once: the main
// module version plus the VCS revision when the build recorded one.
var buildInfo = sync.OnceValue(func() map[string]string {
	info := map[string]string{"go": "", "version": "(devel)", "revision": ""}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return info
	}
	info["go"] = bi.GoVersion
	if bi.Main.Version != "" {
		info["version"] = bi.Main.Version
	}
	for _, kv := range bi.Settings {
		switch kv.Key {
		case "vcs.revision":
			info["revision"] = kv.Value
		case "vcs.modified":
			info["modified"] = kv.Value
		}
	}
	return info
})

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"queued":         s.pool.Queued(),
		"inflight":       s.pool.InFlight(),
		"uptime_seconds": time.Since(s.start).Seconds(),
		"build":          buildInfo(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.render(w, s.pool.Queued(), s.cfg.QueueDepth, s.pool.InFlight(), s.cache.Stats())
}

// handleSubmit accepts a job spec and schedules it (or answers from
// cache). 200 done (cached), 202 scheduled, 400 bad spec, 429 queue full.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec experiments.SimSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	spec, err := s.normalize(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	tr := s.traceFor(r)
	ingress := tr.StartSpan("service_ingress")
	ingress.SetAttrStr("endpoint", "submit")
	defer ingress.End()
	echoTraceparent(w, tr)
	j, fresh, err := s.getOrSubmit(spec, true, tr)
	if errors.Is(err, runner.ErrQueueFull) || errors.Is(err, runner.ErrPoolClosed) {
		s.writeBackpressure(w)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	status, errMsg, result, wall, sum := s.snapshot(j)
	doc := jobDoc{ID: j.id, Spec: j.spec, Status: status, Error: errMsg, WallSeconds: wall.Seconds(),
		Telemetry: sum, TraceID: s.jobTraceID(j)}
	code := http.StatusAccepted
	if status == statusDone {
		code = http.StatusOK
		doc.Cached = !fresh
		doc.Result = result
	}
	writeJSON(w, code, doc)
}

// handleJob reports a job's state; the result rides along once done.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	status, errMsg, result, wall, sum := s.snapshot(j)
	writeJSON(w, http.StatusOK, jobDoc{
		ID: j.id, Spec: j.spec, Status: status, Error: errMsg,
		WallSeconds: wall.Seconds(), Result: result, Telemetry: sum,
		TraceID: s.jobTraceID(j),
	})
}

// handleJobEvents streams a job's lifecycle as server-sent events:
// status transitions, instruction progress frames, and a terminal done
// frame, after which the stream ends. Already-finished jobs get the
// terminal frame immediately.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	s.metrics.sseStart()
	defer s.metrics.sseEnd()

	// terminal composes the final frame from the job's settled state
	// (richer than the broadcast frame: it carries the telemetry digest).
	terminal := func() {
		status, errMsg, _, wall, sum := s.snapshot(j)
		ev := struct {
			jobEvent
			Telemetry *telemetry.Summary `json:"telemetry,omitempty"`
		}{
			jobEvent:  jobEvent{Type: "done", Status: status, Error: errMsg, WallSeconds: wall.Seconds()},
			Telemetry: sum,
		}
		_ = writeSSE(w, "done", ev)
		fl.Flush()
	}

	var sub chan jobEvent
	if j.events != nil {
		var last *jobEvent
		sub, last = j.events.subscribe()
		defer j.events.unsubscribe(sub)
		if last != nil && last.Type != "done" {
			if err := writeSSE(w, last.Type, last); err != nil {
				return
			}
			fl.Flush()
		}
	}
	for {
		select {
		case ev, ok := <-sub:
			if !ok {
				// Stream closed by the job's terminal transition; fall
				// through to the done channel for the settled state.
				sub = nil // a nil channel blocks forever
				continue
			}
			if ev.Type == "done" {
				// Settled state (summary included) comes from terminal().
				continue
			}
			if err := writeSSE(w, ev.Type, ev); err != nil {
				return
			}
			fl.Flush()
		case <-j.done:
			terminal()
			return
		case <-r.Context().Done():
			return
		}
	}
}

// specFromQuery builds a SimSpec from URL parameters.
func specFromQuery(r *http.Request) (experiments.SimSpec, error) {
	q := r.URL.Query()
	spec := experiments.SimSpec{
		Benchmark: q.Get("benchmark"),
		Scheme:    q.Get("scheme"),
	}
	if v := q.Get("insts"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return spec, fmt.Errorf("bad insts %q", v)
		}
		spec.Instructions = n
	}
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return spec, fmt.Errorf("bad seed %q", v)
		}
		spec.Seed = n
	}
	if v := q.Get("sanitize"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return spec, fmt.Errorf("bad sanitize %q", v)
		}
		spec.Sanitize = b
	}
	// sample=1 opts the job into SMARTS sampled simulation (defaults from
	// Normalize); the sample_* knobs refine the schedule and imply sample.
	sampled := false
	var sb experiments.SamplingSpec
	if v := q.Get("sample"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return spec, fmt.Errorf("bad sample %q", v)
		}
		sampled = b
	}
	for _, p := range []struct {
		name string
		dst  *uint64
	}{
		{"sample_detail", &sb.Detail},
		{"sample_window", &sb.Window},
		{"sample_gap", &sb.Gap},
	} {
		if v := q.Get(p.name); v != "" {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return spec, fmt.Errorf("bad %s %q", p.name, v)
			}
			*p.dst = n
			sampled = true
		}
	}
	if v := q.Get("sample_windows"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return spec, fmt.Errorf("bad sample_windows %q", v)
		}
		sb.Windows = n
		sampled = true
	}
	if sampled {
		spec.Sampling = &sb
	}
	return spec, nil
}

// handleResults is the synchronous path: cache hit returns immediately
// (X-Cache: hit); a miss schedules the job and waits. The waiter's request
// context is the job's client-abandon signal.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	spec, err := specFromQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	spec, err = s.normalize(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	tr := s.traceFor(r)
	ingress := tr.StartSpan("service_ingress")
	ingress.SetAttrStr("endpoint", "results")
	defer ingress.End()
	echoTraceparent(w, tr)
	id := spec.Hash()
	if b, ok := s.cache.Get(id); ok {
		lookup := tr.StartSpan("service_cache_lookup")
		lookup.SetAttr("hit", 1)
		lookup.SetAttrStr("job", id)
		lookup.End()
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cache", "hit")
		_, _ = w.Write(b)
		return
	}
	j, _, err := s.getOrSubmit(spec, false, tr)
	if errors.Is(err, runner.ErrQueueFull) || errors.Is(err, runner.ErrPoolClosed) {
		s.writeBackpressure(w)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	defer s.release(j)
	select {
	case <-j.done:
	case <-r.Context().Done():
		// Client gone; release (deferred) cancels the job if unwanted.
		return
	}
	status, errMsg, result, _, _ := s.snapshot(j)
	switch status {
	case statusDone:
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cache", "miss")
		_, _ = w.Write(result)
	case statusCanceled:
		writeError(w, http.StatusServiceUnavailable, "job canceled: %s", errMsg)
	default:
		writeError(w, http.StatusInternalServerError, "job failed: %s", errMsg)
	}
}

// ---------- figure composition ----------

// figDoc is a figure assembled from per-cell cached results.
type figDoc struct {
	Schema       string             `json:"schema"`
	Instructions uint64             `json:"instructions"`
	Seed         int64              `json:"seed"`
	Cells        int                `json:"cells"`
	CachedCells  int                `json:"cached_cells"`
	Rows         []figRow           `json:"rows"`
	Geomean      map[string]float64 `json:"geomean"`
	// TraceID names the composition's span tree when tracing is on
	// (GET /v1/traces/{trace_id} serves it).
	TraceID string `json:"trace_id,omitempty"`
}

type figRow struct {
	Benchmark  string             `json:"benchmark"`
	Normalized map[string]float64 `json:"normalized"`
}

// handleExperiment composes fig14 (normalized execution time) or fig18
// (normalized traffic) from the 16x5 evaluation matrix, cell by cell:
// cached cells are free, missing cells are scheduled on the pool with
// queue-aware pacing. Repeating the request against a warm daemon touches
// no simulator at all. The cells are normalized by
// experiments.MatrixFigure, as aosbench's figures are.
func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	fig := r.PathValue("fig")
	switch fig {
	case "fig14", "fig18":
	case "attacks":
		s.handleAttacks(w, r)
		return
	default:
		writeError(w, http.StatusNotFound, "unknown experiment %q (have fig14, fig18, attacks)", fig)
		return
	}
	base, err := specFromQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if base.Benchmark != "" || base.Scheme != "" {
		writeError(w, http.StatusBadRequest, "experiments take insts/seed/sanitize only; benchmark and scheme are fixed by the matrix")
		return
	}
	tr := s.traceFor(r)
	ingress := tr.StartSpan("service_ingress")
	ingress.SetAttrStr("endpoint", "experiment")
	ingress.SetAttrStr("fig", fig)
	defer ingress.End()
	echoTraceparent(w, tr)

	var specs []experiments.SimSpec
	for _, p := range experiments.MatrixBenchmarks() {
		for _, scheme := range instrument.Schemes() {
			spec := base
			spec.Benchmark = p
			spec.Scheme = scheme.String()
			spec, err := s.normalize(spec)
			if err != nil {
				writeError(w, http.StatusBadRequest, "%v", err)
				return
			}
			specs = append(specs, spec)
		}
	}
	compose := tr.StartSpan("experiments_compose")
	compose.SetAttrStr("fig", fig)
	compose.SetAttr("cells", uint64(len(specs)))
	cells, cachedCells, err := s.collect(r.Context(), specs)
	if errors.Is(err, runner.ErrQueueFull) || errors.Is(err, runner.ErrPoolClosed) {
		compose.End()
		s.writeBackpressure(w)
		return
	}
	if err != nil {
		compose.End()
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	compose.SetAttr("cached_cells", uint64(cachedCells))
	compose.End()

	t, err := experiments.MatrixFigure(fig, experiments.MatrixBenchmarks(), func(b string, scheme instrument.Scheme) (uint64, uint64, bool) {
		res, ok := cells[cellKey(b, scheme.String())]
		if !ok {
			return 0, 0, false
		}
		return res.Cycles, res.TrafficBytes, true
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	doc := figDoc{
		Schema:       "aosd/" + fig + "/v1",
		Instructions: specs[0].Instructions,
		Seed:         specs[0].Seed,
		Cells:        len(specs),
		CachedCells:  cachedCells,
		Geomean:      t.Geomeans(),
	}
	if tr != nil {
		doc.TraceID = tr.TraceID().String()
	}
	for _, row := range t.Rows {
		fr := figRow{Benchmark: row.Name, Normalized: map[string]float64{}}
		for c, label := range t.Columns {
			fr.Normalized[label] = row.Values[c]
		}
		doc.Rows = append(doc.Rows, fr)
	}
	writeJSON(w, http.StatusOK, doc)
}

func cellKey(benchmark, scheme string) string { return benchmark + "/" + scheme }

// collect gathers one SimResult per spec: from cache when possible,
// otherwise scheduled on the pool. Backpressure-aware: when the queue is
// full it waits for one of its own pending cells before submitting more,
// and only reports ErrQueueFull once it has nothing left to wait on (the
// queue is saturated by other clients). ctx abandons the whole collection.
func (s *Server) collect(ctx context.Context, specs []experiments.SimSpec) (map[string]*experiments.SimResult, int, error) {
	out := make(map[string]*experiments.SimResult, len(specs))
	cached := 0
	var pending []*job
	defer func() {
		for _, j := range pending {
			s.release(j)
		}
	}()

	decode := func(b []byte) (*experiments.SimResult, error) {
		var res experiments.SimResult
		if err := json.Unmarshal(b, &res); err != nil {
			return nil, fmt.Errorf("corrupt cached result: %w", err)
		}
		return &res, nil
	}

	waitIdx := 0
	for _, spec := range specs {
		if b, ok := s.cache.Get(spec.Hash()); ok {
			res, err := decode(b)
			if err != nil {
				return nil, 0, err
			}
			out[cellKey(spec.Benchmark, spec.Scheme)] = res
			cached++
			continue
		}
		for {
			// Cell jobs run untraced: a 16x5 composition would blow the
			// request trace's span budget; the compose span carries the
			// aggregate instead.
			j, _, err := s.getOrSubmit(spec, false, nil)
			if err == nil {
				pending = append(pending, j)
				break
			}
			if !errors.Is(err, runner.ErrQueueFull) {
				return nil, 0, err
			}
			if waitIdx >= len(pending) {
				return nil, 0, err // saturated by other clients
			}
			select {
			case <-pending[waitIdx].done:
				waitIdx++
			case <-ctx.Done():
				return nil, 0, ctx.Err()
			}
		}
	}
	for _, j := range pending {
		select {
		case <-j.done:
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		}
		status, errMsg, result, _, _ := s.snapshot(j)
		if status != statusDone {
			return nil, 0, fmt.Errorf("cell %s/%s %s: %s", j.spec.Benchmark, j.spec.Scheme, status, errMsg)
		}
		res, err := decode(result)
		if err != nil {
			return nil, 0, err
		}
		out[cellKey(j.spec.Benchmark, j.spec.Scheme)] = res
	}
	return out, cached, nil
}
