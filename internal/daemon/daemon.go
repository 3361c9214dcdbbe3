// Package daemon is the wiring the three serving binaries (itracker,
// p4pfed, apptracker) share: the observability flags, the process
// logger, the metrics registry and optional tracer, the /metrics,
// /debug/traces and pprof routes, and an http.Server that drains on
// SIGINT/SIGTERM.
package daemon

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"p4p/internal/telemetry"
	"p4p/internal/trace"
)

// Flags holds the observability flags every serving binary takes.
type Flags struct {
	pprofOn, logJSON, tracesOn *bool
	traceSlow                  *time.Duration
	traceSample, traceKeep     *float64
	traceCap                   *int
}

// RegisterFlags defines the shared flags on the default flag set; call
// it before flag.Parse.
func RegisterFlags() *Flags {
	return &Flags{
		pprofOn:     flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/"),
		logJSON:     flag.Bool("log-json", false, "emit JSON logs instead of text"),
		tracesOn:    flag.Bool("traces", false, "enable request tracing and serve GET /debug/traces"),
		traceSlow:   flag.Duration("trace-slow", 250*time.Millisecond, "tail sampling: always keep traces slower than this"),
		traceSample: flag.Float64("trace-sample", 1, "head sampling rate for new traces in [0,1]"),
		traceKeep:   flag.Float64("trace-keep", 0.1, "tail keep rate for fast clean traces in [0,1]"),
		traceCap:    flag.Int("trace-cap", 256, "kept-trace ring capacity"),
	}
}

// Daemon is one process's shared observability state.
type Daemon struct {
	// Logger is the process logger: text for humans, JSON for log
	// pipelines (-log-json).
	Logger *slog.Logger
	// Registry feeds GET /metrics.
	Registry *telemetry.Registry
	// Tracer is nil unless -traces is set; every consumer is nil-safe.
	Tracer *trace.Tracer

	flags     *Flags
	collector *trace.Collector
}

// Start builds the logger, registry and tracer from the parsed flags.
func (f *Flags) Start() *Daemon {
	var h slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *f.logJSON {
		h = slog.NewJSONHandler(os.Stderr, nil)
	}
	d := &Daemon{Logger: slog.New(h), Registry: telemetry.NewRegistry(), flags: f}
	if *f.tracesOn {
		d.collector = trace.NewCollector(*f.traceCap, *f.traceSlow, *f.traceKeep)
		d.Tracer = &trace.Tracer{Collector: d.collector, SampleRate: *f.traceSample}
	}
	return d
}

// Serve mounts GET /metrics (registry plus Go runtime health), GET
// /debug/traces when tracing is on and pprof behind -pprof on mux, then
// serves it on addr until the process is signalled, draining in-flight
// requests for up to 10 s. listening is the startup log line. A listen
// failure exits the process with status 1.
func (d *Daemon) Serve(ctx context.Context, addr string, mux *http.ServeMux, listening string, attrs ...any) {
	mux.Handle("GET /metrics", telemetry.NewRuntimeMetrics(d.Registry).Handler(d.Registry.Handler()))
	if d.collector != nil {
		mux.Handle("GET /debug/traces", d.collector.Handler())
	}
	if *d.flags.pprofOn {
		telemetry.RegisterPprof(mux)
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := &http.Server{
		Addr:              addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	d.Logger.Info(listening, append(attrs,
		slog.String("addr", addr),
		slog.Bool("pprof", *d.flags.pprofOn),
		slog.Bool("traces", d.Tracer != nil))...)

	select {
	case err := <-errCh:
		d.Logger.Error("serve failed", slog.String("error", err.Error()))
		os.Exit(1)
	case <-ctx.Done():
		d.Logger.Info("shutting down")
		// ctx is already done; the drain deadline descends from it minus
		// the cancellation.
		sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			d.Logger.Error("shutdown", slog.String("error", err.Error()))
		}
	}
}
