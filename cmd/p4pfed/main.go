// Command p4pfed serves a P4P federation front end: a shard router
// that consumes N backend iTracker portals (one per provider / PID
// shard), composes their external views with the configured
// interdomain circuits, and serves the merged federation view over the
// standard portal wire protocol — an appTracker cannot tell it from a
// single very wide iTracker.
//
// Example, two providers joined by one circuit:
//
//	p4pfed -listen :8090 \
//	    -shard east=http://east.example:8080 \
//	    -shard west=http://west.example:8080 \
//	    -circuit east:4,west:7,2.5
//
// then query it:
//
//	curl localhost:8090/p4p/v1/distances
//	curl "localhost:8090/p4p/v1/distances/batch?pairs=4-7"
//	curl localhost:8090/stats
//
// Observability matches the portal binary: GET /metrics serves the
// Prometheus exposition (per-shard refreshes/failures/stale serves,
// merge counters, per-route HTTP metrics, runtime health), GET
// /healthz and /readyz serve liveness and readiness (ready while at
// least one shard holds a view — degraded-but-serving is reported, not
// failed), GET /stats snapshots per-shard freshness and the published
// merge, and -traces enables request tracing on GET /debug/traces.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"strings"

	"p4p/internal/daemon"
	"p4p/internal/federation"
	"p4p/internal/refresh"
	"p4p/internal/telemetry"
)

// listFlag collects a repeatable string flag.
type listFlag []string

func (l *listFlag) String() string     { return strings.Join(*l, ",") }
func (l *listFlag) Set(s string) error { *l = append(*l, s); return nil }

func main() {
	var shardFlags, circuitFlags listFlag
	var (
		listen  = flag.String("listen", ":8090", "HTTP listen address")
		ttl     = flag.Duration("ttl", refresh.DefaultTTL, "merged-view TTL between shard revalidations")
		backoff = flag.Duration("failure-backoff", refresh.DefaultFailureBackoff, "serve last-known-good this long before retrying a failed shard")
		tokens  = flag.String("tokens", "", "comma-separated trusted appTracker tokens (empty = open)")
		token   = flag.String("shard-token", "", "trust token presented to every backend portal")
		shared  = daemon.RegisterFlags()
	)
	flag.Var(&shardFlags, "shard", "backend shard as name=url (repeatable, at least one)")
	flag.Var(&circuitFlags, "circuit", "interdomain circuit as shardA:pidA,shardB:pidB,cost (repeatable)")
	flag.Parse()
	d := shared.Start()

	cfg := federation.Config{
		TTL:            *ttl,
		FailureBackoff: *backoff,
	}
	if *tokens != "" {
		cfg.TrustedTokens = strings.Split(*tokens, ",")
	}
	var names []string
	for _, s := range shardFlags {
		name, url, ok := strings.Cut(s, "=")
		if !ok || name == "" || url == "" {
			fmt.Fprintf(os.Stderr, "bad -shard %q: want name=url\n", s)
			os.Exit(2)
		}
		cfg.Shards = append(cfg.Shards, federation.ShardConfig{Name: name, BaseURL: url, Token: *token})
		names = append(names, name)
	}
	var err error
	cfg.Circuits, err = federation.ParseCircuits(circuitFlags, names)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	rt, err := federation.NewRouter(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	rt.Metrics = federation.NewRouterMetrics(d.Registry)
	rt.Telemetry.Metrics = telemetry.NewHTTPMetrics(d.Registry, "p4p_http")
	rt.Telemetry.Logger = d.Logger
	rt.Telemetry.Tracer = d.Tracer
	rt.Telemetry.Preregister()

	mux := http.NewServeMux()
	mux.Handle("/p4p/", rt)
	mux.Handle("GET /stats", rt)
	mux.Handle("GET /healthz", rt)
	mux.Handle("GET /readyz", rt)
	d.Serve(context.Background(), *listen, mux, "federation router listening",
		slog.Int("shards", len(cfg.Shards)),
		slog.Int("circuits", len(cfg.Circuits)))
}
