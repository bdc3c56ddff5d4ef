// Package loadgen is aosload's engine: an open-loop HTTP traffic
// generator for the aosd serving API with deterministic request mixes,
// cold-vs-warm cache ratios, burst schedules, an HDR-style latency
// histogram and an SLO pass/fail verdict.
//
// Open loop means the request schedule is fixed by the target rate, not
// by response times: a slow server does not slow the generator down, it
// accumulates in-flight requests (bounded by MaxInFlight) — the honest
// way to measure latency under load, closed-loop generators hide queueing
// delay by self-throttling (coordinated omission).
package loadgen

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"time"

	"aos/internal/experiments"
	"aos/internal/instrument"
)

// Mixes. Each names a deterministic request population over the aosd API.
const (
	MixSingle  = "single"  // GET /v1/results, one cell per request
	MixFig14   = "fig14"   // GET /v1/experiments/fig14 (16x5 composition)
	MixFig18   = "fig18"   // GET /v1/experiments/fig18
	MixAttacks = "attacks" // GET /v1/experiments/attacks
	MixMixed   = "mixed"   // 70% single, 10% each figure, 10% attacks
)

// Mixes lists the valid -mix values.
func Mixes() []string { return []string{MixSingle, MixFig14, MixFig18, MixAttacks, MixMixed} }

// BurstSpec overlays a square-wave burst schedule on the base rate:
// every Every, the rate multiplies by Factor for Len.
type BurstSpec struct {
	Every  time.Duration
	Len    time.Duration
	Factor float64
}

// Config parameterises one load run.
type Config struct {
	// BaseURL is the daemon root, e.g. http://127.0.0.1:8080.
	BaseURL string
	// Mix selects the request population (see Mixes; "" = single).
	Mix string
	// Rate is the open-loop target in requests/second (<= 0 uses 10).
	Rate float64
	// Duration bounds the run (<= 0 uses 10s).
	Duration time.Duration
	// MaxInFlight bounds concurrent requests (<= 0 uses 64). A tick that
	// finds every slot busy is counted as client shed, not sent.
	MaxInFlight int
	// WarmRatio in [0,1] is the fraction of requests re-using the base
	// seed — repeat specs the daemon answers from cache. The rest get
	// unique seeds (cold: every one is a fresh simulation). Default 0
	// (all cold).
	WarmRatio float64
	// Instructions is the per-cell budget for simulation specs (<= 0
	// uses 20000 — interactive scale).
	Instructions uint64
	// Seed makes the request schedule reproducible: mix selection,
	// warm/cold choice and cold-seed assignment all derive from it.
	Seed int64
	// Burst, when non-nil, overlays a burst schedule on Rate.
	Burst *BurstSpec
	// SLOAvailability is the pass/fail availability objective
	// (<= 0 uses 0.99); SLOP99 the p99 latency objective (0 = ungated).
	SLOAvailability float64
	SLOP99          time.Duration
}

// Run drives the configured load against the daemon and returns the
// graded report. ctx aborts the run early (the partial report is still
// returned with an error == nil; ctx errors are not transport errors).
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("loadgen: BaseURL is required")
	}
	mix := cfg.Mix
	if mix == "" {
		mix = MixSingle
	}
	valid := false
	for _, m := range Mixes() {
		if m == mix {
			valid = true
			break
		}
	}
	if !valid {
		return nil, fmt.Errorf("loadgen: unknown mix %q (have %v)", cfg.Mix, Mixes())
	}
	rate := cfg.Rate
	if rate <= 0 {
		rate = 10
	}
	dur := cfg.Duration
	if dur <= 0 {
		dur = 10 * time.Second
	}
	inFlight := cfg.MaxInFlight
	if inFlight <= 0 {
		inFlight = 64
	}
	insts := cfg.Instructions
	if insts == 0 {
		insts = 20000
	}
	avail := cfg.SLOAvailability
	if avail <= 0 || avail >= 1 {
		avail = 0.99
	}
	client := &http.Client{Timeout: 2 * time.Minute}

	r := &runner{
		cfg:    cfg,
		mix:    mix,
		insts:  insts,
		client: client,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		sem:    make(chan struct{}, inFlight),
	}
	rep := &Report{
		Schema:          Schema,
		Mix:             mix,
		TargetRPS:       rate,
		DurationSeconds: dur.Seconds(),
		WarmRatio:       cfg.WarmRatio,
		Status:          map[string]uint64{"2xx": 0, "429": 0, "4xx": 0, "5xx": 0},
	}

	var wg sync.WaitGroup
	start := time.Now()
	next := start
	for {
		elapsed := time.Since(start)
		if elapsed >= dur || ctx.Err() != nil {
			break
		}
		cur := rate
		if b := cfg.Burst; b != nil && b.Every > 0 && b.Factor > 0 && elapsed%b.Every < b.Len {
			cur = rate * b.Factor
		}
		// The schedule is absolute (next accumulates ideal intervals), so
		// a slow tick is caught up with back-to-back sends instead of
		// silently stretching the test — open loop, no coordinated omission.
		next = next.Add(time.Duration(float64(time.Second) / cur))
		if d := time.Until(next); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		url, warm := r.nextRequest()
		select {
		case r.sem <- struct{}{}:
		default:
			r.mu.Lock()
			rep.ClientShed++
			r.mu.Unlock()
			continue
		}
		r.mu.Lock()
		rep.Sent++
		if warm {
			rep.Warm++
		} else {
			rep.Cold++
		}
		r.mu.Unlock()
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			defer func() { <-r.sem }()
			r.do(ctx, url, rep)
		}(url)
	}
	wg.Wait()
	wall := time.Since(start)

	r.mu.Lock()
	rep.ThroughputRPS = float64(rep.Completed) / wall.Seconds()
	attempts := rep.Completed + rep.TransportErrors
	if attempts > 0 {
		rep.Availability = 1 - float64(rep.Status["5xx"]+rep.TransportErrors)/float64(attempts)
	}
	rep.LatencySeconds = Percentiles{
		P50:  r.lat.quantile(0.50),
		P90:  r.lat.quantile(0.90),
		P99:  r.lat.quantile(0.99),
		Max:  r.lat.max,
		Mean: r.lat.mean(),
	}
	r.mu.Unlock()
	rep.grade(avail, cfg.SLOP99.Seconds())
	return rep, nil
}

// runner is one Run invocation's mutable state. The scheduler goroutine
// owns rng and coldSeq; mu guards the report counters and histogram the
// request goroutines write.
type runner struct {
	cfg    Config
	mix    string
	insts  uint64
	client *http.Client
	rng    *rand.Rand
	sem    chan struct{}

	coldSeq int64

	mu  sync.Mutex
	lat hist
}

// nextRequest picks the next URL from the mix (scheduler goroutine only).
func (r *runner) nextRequest() (target string, warm bool) {
	kind := r.mix
	if kind == MixMixed {
		switch p := r.rng.Float64(); {
		case p < 0.70:
			kind = MixSingle
		case p < 0.80:
			kind = MixFig14
		case p < 0.90:
			kind = MixFig18
		default:
			kind = MixAttacks
		}
	}
	warm = r.rng.Float64() < r.cfg.WarmRatio
	seed := r.cfg.Seed
	if !warm {
		// Unique seed -> unique spec hash -> guaranteed cache miss.
		r.coldSeq++
		seed = r.cfg.Seed + r.coldSeq
	}
	switch kind {
	case MixFig14, MixFig18:
		return fmt.Sprintf("%s/v1/experiments/%s?insts=%d&seed=%d", r.cfg.BaseURL, kind, r.insts, seed), warm
	case MixAttacks:
		// Attack grading is per-program work: 2 programs/cell keeps a cold
		// attacks request comparable to a single simulation cell.
		return fmt.Sprintf("%s/v1/experiments/attacks?programs=2&seed=%d", r.cfg.BaseURL, uint64(seed)), warm
	default:
		benches := experiments.MatrixBenchmarks()
		schemes := instrument.Schemes()
		b := benches[r.rng.Intn(len(benches))]
		s := schemes[r.rng.Intn(len(schemes))]
		q := url.Values{}
		q.Set("benchmark", b)
		// QueryEscape matters: the PA+AOS scheme would otherwise decode
		// server-side as "PA AOS".
		q.Set("scheme", s.String())
		q.Set("insts", fmt.Sprint(r.insts))
		q.Set("seed", fmt.Sprint(seed))
		return r.cfg.BaseURL + "/v1/results?" + q.Encode(), warm
	}
}

// do issues one request and records its outcome.
func (r *runner) do(ctx context.Context, url string, rep *Report) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		r.mu.Lock()
		rep.TransportErrors++
		r.mu.Unlock()
		return
	}
	start := time.Now()
	resp, err := r.client.Do(req)
	if err == nil {
		// Latency includes draining the body: a composition document is
		// hundreds of KB and the client hasn't "got the answer" until the
		// last byte.
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	elapsed := time.Since(start)
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		if ctx.Err() != nil {
			return // aborted by the caller, not a server failure
		}
		rep.TransportErrors++
		return
	}
	rep.Completed++
	r.lat.observe(elapsed.Seconds())
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		rep.Status["429"]++
	case resp.StatusCode >= 500:
		rep.Status["5xx"]++
	case resp.StatusCode >= 400:
		rep.Status["4xx"]++
	default:
		rep.Status["2xx"]++
	}
}
