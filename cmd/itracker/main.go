// Command itracker serves a P4P provider portal over HTTP: the policy,
// p4p-distance, capability and PID-lookup interfaces of the paper's
// Section 3, backed by the dual-decomposition p-distance engine.
//
// Example:
//
//	itracker -topology abilene -listen :8080 -objective mlu
//
// then query it:
//
//	curl localhost:8080/p4p/v1/distances
//	curl "localhost:8080/p4p/v1/pid?ip=10.3.0.7"
//	curl localhost:8080/metrics
//
// Observability: GET /metrics serves the Prometheus exposition (HTTP
// request counts/latency per route, ETag 304 hits, view-recompute
// durations, view version, super-gradient norm, max link utilization,
// and Go runtime health sampled per scrape); GET /healthz and
// GET /readyz serve liveness and readiness (ready once a distance view
// is materialized); -traces enables W3C trace-context request tracing
// with tail sampling and serves kept traces as JSON on
// GET /debug/traces; -pprof additionally mounts net/http/pprof under
// /debug/pprof/. Every request is logged with a request ID via
// log/slog.
package main

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"p4p/internal/core"
	"p4p/internal/daemon"
	"p4p/internal/health"
	"p4p/internal/itracker"
	"p4p/internal/portal"
	"p4p/internal/telemetry"
	"p4p/internal/topology"
)

func main() {
	var (
		listen    = flag.String("listen", ":8080", "HTTP listen address")
		topoName  = flag.String("topology", "abilene", "topology: abilene, isp-a, isp-b, isp-c")
		objective = flag.String("objective", "mlu", "ISP objective: mlu or bdp")
		step      = flag.Float64("step", 0.1, "super-gradient step size")
		perturb   = flag.Float64("perturb", 0, "privacy perturbation fraction (e.g. 0.05)")
		tokens    = flag.String("tokens", "", "comma-separated trusted appTracker tokens (empty = open)")
		update    = flag.Duration("update", 0, "if set, run an idle price update every interval")
		shared    = daemon.RegisterFlags()
	)
	flag.Parse()
	// A negative interval would read as 0, "no updates", without a word.
	if *update < 0 {
		fmt.Fprintf(os.Stderr, "-update %v must not be negative\n", *update)
		os.Exit(2)
	}
	d := shared.Start()
	logger := d.Logger

	g, err := topologyByName(*topoName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	r := topology.ComputeRouting(g)
	cfg, err := engineConfig(*objective, *step, *perturb)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	engine := core.NewEngine(g, r, cfg)

	var trusted []string
	if *tokens != "" {
		trusted = strings.Split(*tokens, ",")
	}
	tr := itracker.New(itracker.Config{
		Name:          g.Name,
		ASN:           g.Node(0).ASN,
		TrustedTokens: trusted,
		Policy: itracker.Policy{
			NearCongestionUtil: 0.7,
			HeavyUsageUtil:     0.9,
		},
	}, engine, itracker.SyntheticPIDMap(g))

	// Telemetry: one registry feeds the portal middleware, the iTracker
	// engine gauges, the encoded-response cache counters, and GET /metrics.
	tr.Metrics = itracker.NewMetrics(d.Registry)

	h := portal.NewHandler(tr)
	h.Telemetry.Metrics = telemetry.NewHTTPMetrics(d.Registry, "p4p_http")
	h.CacheMetrics = portal.NewCacheMetrics(d.Registry)
	h.Telemetry.Logger = logger
	h.Telemetry.Tracer = d.Tracer
	h.Telemetry.Preregister()

	// Prime the distance view so /readyz flips to ready as soon as the
	// engine has materialized once, not on the first client request.
	primeToken := ""
	if len(trusted) > 0 {
		primeToken = trusted[0]
	}
	if _, err := tr.Distances(primeToken); err != nil {
		logger.Warn("view prime failed; /readyz stays unavailable until first successful recompute",
			slog.String("error", err.Error()))
	}

	mux := http.NewServeMux()
	mux.Handle("/p4p/", h)
	mux.Handle("GET /healthz", health.Handler())
	mux.Handle("GET /readyz", health.ReadyHandler(health.Check{
		Name: "view",
		Probe: func() (bool, string) {
			if tr.Ready() {
				return true, "distance view materialized"
			}
			return false, "no materialized distance view yet"
		},
	}))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *update > 0 {
		go func() {
			zero := make([]float64, g.NumLinks())
			tick := time.NewTicker(*update)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					tr.ObserveAndUpdate(zero)
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	d.Serve(ctx, *listen, mux, "iTracker listening",
		slog.String("network", g.Name),
		slog.Int("pids", g.NumNodes()),
		slog.Int("links", g.NumLinks()))
}

// engineConfig builds the price engine's configuration from the flags,
// refusing what core.NewEngine would panic on. A perturbing engine is seeded from crypto/rand: under a fixed seed an
// appTracker could replay the factors and divide them out of a view.
func engineConfig(objective string, step, perturb float64) (core.Config, error) {
	cfg := core.Config{StepSize: step, PerturbFrac: perturb}
	switch objective {
	case "mlu":
		cfg.Objective = core.MinimizeMLU
	case "bdp":
		cfg.Objective = core.MinimizeBDP
	default:
		return cfg, fmt.Errorf("unknown objective %q", objective)
	}
	if err := cfg.Check(); err != nil {
		return cfg, err
	}
	if perturb > 0 {
		var seed [8]byte
		if _, err := crand.Read(seed[:]); err != nil {
			return cfg, fmt.Errorf("perturbation seed: %w", err)
		}
		cfg.PerturbSeed = int64(binary.LittleEndian.Uint64(seed[:]))
	}
	return cfg, nil
}

func topologyByName(name string) (*topology.Graph, error) {
	switch strings.ToLower(name) {
	case "abilene":
		return topology.Abilene(), nil
	case "abilene-virtual":
		return topology.AbileneVirtualISPs(), nil
	case "isp-a", "ispa":
		return topology.ISPA(), nil
	case "isp-b", "ispb":
		return topology.ISPB(), nil
	case "isp-c", "ispc":
		return topology.ISPC(), nil
	default:
		return nil, fmt.Errorf("unknown topology %q (want abilene, abilene-virtual, isp-a, isp-b, isp-c)", name)
	}
}
