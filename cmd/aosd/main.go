// Command aosd serves the AOS simulator as a long-lived JSON HTTP
// service with job scheduling, content-addressed result caching and
// Prometheus metrics.
//
// Usage:
//
//	aosd -addr :8080                       # serve with defaults
//	aosd -addr :8080 -j 4 -queue 128       # 4 sim workers, 128-deep queue
//	aosd -cachedir /var/cache/aosd         # spill results to disk
//	aosd -job-timeout 2m -max-insts 5e6    # interactive-scale guard rails
//	aosd -pprof                            # mount /debug/pprof/ (opt-in)
//
// Because a simulation's result is a pure function of its spec
// (benchmark, scheme, instruction budget, seed, sanitize), aosd caches
// results under the SHA-256 of the spec's canonical JSON: resubmitting an
// identical spec returns the exact cached bytes without re-simulating.
// When the queue is full, submissions get HTTP 429 with Retry-After
// rather than unbounded buffering. SIGINT/SIGTERM drains in-flight jobs
// before exit (bounded by -drain).
//
// See EXPERIMENTS.md for curl recipes (including composing Fig 14 from
// cached cells) and DESIGN.md §9 for the architecture.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	netpprof "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"aos/internal/service"
	"aos/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	workers := flag.Int("j", 0, "simulation workers (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "pending-job queue depth (full queue -> HTTP 429)")
	cacheBytes := flag.Int64("cachebytes", 64<<20, "in-memory result-cache budget in bytes")
	cacheDir := flag.String("cachedir", "", "spill cached results to this directory (survives restarts)")
	jobTimeout := flag.Duration("job-timeout", 0, "per-job wall-time limit (0 = none)")
	maxInsts := flag.Uint64("max-insts", 0, "reject specs above this instruction budget (0 = none)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown budget before canceling jobs")
	pprof := flag.Bool("pprof", false, "expose net/http/pprof profiling handlers under /debug/pprof/")
	telemetryInterval := flag.Uint64("telemetry-interval", telemetry.DefaultInterval,
		"flight-recorder sampling cadence in commit cycles for fresh runs (0 disables; summaries ride on job documents and SSE streams)")
	logFormat := flag.String("log", "text", "structured log format: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	trace := flag.Bool("trace", false,
		"enable distributed tracing: W3C traceparent propagation plus per-job span trees served as Perfetto documents from /v1/jobs/{id}/trace and /v1/traces/{id}")
	sloAvailability := flag.Float64("slo-availability", 0,
		"availability objective for the /metrics error-budget burn gauges (0 = 0.99)")
	flag.Parse()

	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aosd:", err)
		os.Exit(1)
	}

	if err := run(*addr, service.Config{
		Workers:           *workers,
		QueueDepth:        *queue,
		CacheBytes:        *cacheBytes,
		CacheDir:          *cacheDir,
		JobTimeout:        *jobTimeout,
		MaxInstructions:   *maxInsts,
		TelemetryInterval: *telemetryInterval,
		Logger:            logger,
		Tracing:           *trace,
		SLOAvailability:   *sloAvailability,
	}, *drain, *pprof, logger); err != nil {
		logger.Error("exiting", "error", err)
		os.Exit(1)
	}
}

// buildLogger assembles the daemon's structured logger. All aosd
// diagnostics flow through it; per-job records (added by the service)
// carry the job's correlation ID.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log %q (want text or json)", format)
	}
}

func run(addr string, cfg service.Config, drain time.Duration, pprof bool, logger *slog.Logger) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Jobs do not run under ctx: a signal must drain them gracefully,
	// not cancel them outright — svc.Close force-cancels only once the
	// drain budget expires.

	svc, err := service.New(cfg)
	if err != nil {
		return err
	}
	handler := svc.Handler()
	if pprof {
		// Profiling is opt-in: the handlers expose stack traces and heap
		// contents, so they never ride along on a default deployment. The
		// service mux owns every other path.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", netpprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
		mux.Handle("/", handler)
		handler = mux
		logger.Info("pprof enabled", "url", "http://"+addr+"/debug/pprof/")
	}
	httpSrv := &http.Server{Addr: addr, Handler: handler}

	errc := make(chan error, 1)
	go func() {
		logger.Info("serving", "addr", addr, "workers", cfg.Workers,
			"queue_depth", cfg.QueueDepth, "telemetry_interval", cfg.TelemetryInterval)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting connections, let queued and running
	// jobs finish, then force-cancel whatever remains past the budget.
	logger.Info("shutting down; draining jobs", "budget", drain)
	stop() // a second signal now kills the process immediately
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("http shutdown", "error", err)
	}
	svc.Close(shutdownCtx)
	<-errc // ListenAndServe has returned ErrServerClosed
	logger.Info("drained")
	return nil
}
