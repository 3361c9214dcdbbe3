// Command apptracker runs a P4P-integrated application tracker: it
// discovers one or more iTracker portals, keeps their p-distance views
// fresh, and answers peer-selection requests over HTTP using the
// three-stage selection of Section 6.2.
//
//	POST /select  {"self": {...}, "candidates": [...], "m": 20}
//
// returns the chosen candidate indices. GET /stats reports the view
// cache counters (refreshes, failures, stale serves), which flag when
// selection is running on a last-known-good view because a portal is
// unreachable.
//
// -itracker takes a comma-separated list of portal URLs. With several,
// the tracker consumes every portal concurrently and peer-matches from
// the merged federation view (apptracker.MultiPortalViews): each
// portal keeps its own freshness and last-known-good state, /stats
// reports the counters per portal, and repeatable -circuit flags
// declare the interdomain adjacencies that price cross-provider pairs.
// Circuits are start-up configuration, fixed for the life of the
// process, e.g.
//
//	apptracker -itracker http://east:8080,http://west:8080 \
//	    -circuit "http://east:8080:4,http://west:8080:7,2.5"
//
// Observability: GET /metrics serves the Prometheus exposition
// (request counts/latency per route, portal-client retries and
// backoff, ETag-cache hits, stale/nil serves, Go runtime health);
// GET /healthz and GET /readyz serve liveness and readiness (ready
// while the portal view is present and fresh enough); -traces enables
// W3C trace-context request tracing — spans propagate through the
// portal client to the iTracker so one trace covers both processes —
// and serves kept traces on GET /debug/traces; -pprof mounts
// net/http/pprof under /debug/pprof/. Requests are logged with request
// IDs via log/slog.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"p4p/internal/apptracker"
	"p4p/internal/daemon"
	"p4p/internal/federation"
	"p4p/internal/health"
	"p4p/internal/portal"
	"p4p/internal/refresh"
	"p4p/internal/telemetry"
)

type selectRequest struct {
	Self       apptracker.Node   `json:"self"`
	Candidates []apptracker.Node `json:"candidates"`
	M          int               `json:"m"`
}

type selectResponse struct {
	Indices []int  `json:"indices"`
	Policy  string `json:"policy"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// maxSelectBody caps a POST /select body, as the portal's batch endpoint
// caps its own: one request cannot make the tracker buffer an arbitrarily
// large candidate list.
const maxSelectBody = 8 << 20

// heldView answers every ViewFor with the one view a /select request
// resolved before taking the selector mutex.
type heldView struct{ v apptracker.DistanceView }

func (h *heldView) ViewFor(int) apptracker.DistanceView { return h.v }

// selectRoute answers POST /select from views. Requests share one
// selector and one RNG, neither of which is for concurrent use, so the
// selection itself runs under a mutex; decoding, encoding and the view
// read do not. The view is read first because ViewFor may run a portal
// refresh in the caller's goroutine: under the mutex, every other
// request would queue behind it instead of being answered from the
// last-known-good view.
func selectRoute(logger *slog.Logger, views apptracker.ViewProvider, rng *rand.Rand, mDefault int) http.HandlerFunc {
	var mu sync.Mutex
	held := &heldView{}
	sel := &apptracker.P4P{Views: held}
	return func(w http.ResponseWriter, r *http.Request) {
		var req selectRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSelectBody)).Decode(&req); err != nil {
			status := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				status = http.StatusRequestEntityTooLarge
			}
			portal.WriteJSON(logger, w, r, status, errorResponse{Error: "bad request: " + err.Error()})
			return
		}
		if req.M <= 0 {
			req.M = mDefault
		}
		view := views.ViewFor(req.Self.ASN)
		mu.Lock()
		held.v = view
		idx := sel.Select(req.Self, req.Candidates, req.M, rng)
		mu.Unlock()
		if idx == nil {
			idx = []int{}
		}
		portal.WriteJSON(logger, w, r, http.StatusOK, selectResponse{Indices: idx, Policy: sel.Name()})
	}
}

// viewCache is what the daemon mounts besides /select, whichever shape
// the deployment runs: MultiPortalViews is one, and onePortal gives a
// single PortalViews the same Ready. S is the /stats body: one portal's
// counters, or a map of them by portal.
type viewCache[S any] interface {
	apptracker.ViewProvider
	Stats() S
	Ready(maxAge time.Duration) (ok bool, detail string)
}

// onePortal words a single portal's readiness for /readyz.
type onePortal struct{ *apptracker.PortalViews }

func (p onePortal) Ready(maxAge time.Duration) (bool, string) {
	if p.PortalViews.Ready(maxAge) {
		return true, "portal view fresh"
	}
	return false, "no fresh portal view (portal unreachable or not yet fetched)"
}

// mountViews serves /stats and /readyz from the view cache. Ready means
// a portal view exists and was fetched within 3x the TTL — the same
// window in which stale-fallback serves are acceptable; in multi-portal
// mode one fresh portal suffices (degraded-but-serving, with the split
// in the detail string).
func mountViews[S any](mux *http.ServeMux, mw *telemetry.Middleware, logger *slog.Logger, cache viewCache[S], ttl time.Duration) apptracker.ViewProvider {
	mux.Handle("GET /stats", mw.RouteFunc("stats", func(w http.ResponseWriter, r *http.Request) {
		portal.WriteJSON(logger, w, r, http.StatusOK, cache.Stats())
	}))
	mux.Handle("GET /readyz", health.ReadyHandler(health.Check{
		Name:  "portal_view",
		Probe: func() (bool, string) { return cache.Ready(3 * ttl) },
	}))
	return cache
}

// listFlag collects a repeatable string flag.
type listFlag []string

func (l *listFlag) String() string     { return strings.Join(*l, ",") }
func (l *listFlag) Set(s string) error { *l = append(*l, s); return nil }

func main() {
	var circuitFlags listFlag
	var (
		listen   = flag.String("listen", ":8081", "HTTP listen address")
		itrURL   = flag.String("itracker", "http://localhost:8080", "iTracker portal base URL(s), comma-separated")
		token    = flag.String("token", "", "trust token for the portal")
		ttl      = flag.Duration("view-ttl", refresh.DefaultTTL, "p-distance view cache TTL")
		seed     = flag.Int64("seed", time.Now().UnixNano(), "selection RNG seed")
		mDefault = flag.Int("m", 20, "default peer count per request")
		retries  = flag.Int("portal-retries", 3, "portal attempts per refresh")
		shared   = daemon.RegisterFlags()
	)
	flag.Var(&circuitFlags, "circuit",
		"interdomain circuit as urlA:pidA,urlB:pidB,cost (repeatable; multi-portal mode only)")
	flag.Parse()
	// An -m below 1 gave /select no peers; a -view-ttl <= 0 kept /readyz
	// ready forever; a -portal-retries below 1 made the default 3 attempts.
	if *mDefault < 1 || *ttl <= 0 || *retries < 1 {
		fmt.Fprintf(os.Stderr, "-m %d, -view-ttl %v and -portal-retries %d must all be positive\n", *mDefault, *ttl, *retries)
		os.Exit(2)
	}

	// Telemetry: one registry feeds the portal client, the view cache,
	// the request middleware, and GET /metrics.
	d := shared.Start()
	logger, reg, tracer := d.Logger, d.Registry, d.Tracer

	urls := strings.Split(*itrURL, ",")
	client := portal.NewClient(urls[0], *token)
	client.Retry.MaxAttempts = *retries
	client.Metrics = portal.NewClientMetrics(reg)
	vm := apptracker.NewViewMetrics(reg)

	mux := http.NewServeMux()
	mw := &telemetry.Middleware{
		Metrics: telemetry.NewHTTPMetrics(reg, "p4p_http"),
		Logger:  logger,
		Tracer:  tracer,
	}
	var provider apptracker.ViewProvider
	if len(urls) > 1 {
		refs := make([]apptracker.PortalRef, len(urls))
		for i, u := range urls {
			refs[i] = apptracker.PortalRef{URL: u}
		}
		// The portal URLs are the shard names circuit endpoints use.
		circuits, err := federation.ParseCircuits(circuitFlags, urls)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		mpv := apptracker.NewMultiPortalViews(client, refs, circuits, *ttl)
		// Portal refreshes are off any request path, so they start their
		// own root spans via the views tracer.
		mpv.Logger, mpv.Tracer = logger, tracer
		mpv.SetMetrics(vm)
		provider = mountViews(mux, mw, logger, mpv, *ttl)
	} else {
		if len(circuitFlags) > 0 {
			fmt.Fprintln(os.Stderr, "-circuit requires more than one -itracker URL")
			os.Exit(2)
		}
		views := apptracker.NewPortalViews(client, *ttl)
		views.Logger, views.Metrics, views.Tracer = logger, vm, tracer
		provider = mountViews(mux, mw, logger, onePortal{views}, *ttl)
	}
	rng := rand.New(rand.NewSource(*seed))
	mux.Handle("POST /select", mw.RouteFunc("select", selectRoute(logger, provider, rng, *mDefault)))
	mux.Handle("GET /healthz", health.Handler())
	mw.Preregister()

	// Warm the view in the background so /readyz flips as soon as the
	// portal answers, without blocking startup when it is down. ViewFor
	// returns once the portal client's per-attempt timeouts and bounded
	// retries run out.
	go provider.ViewFor(0)

	d.Serve(context.Background(), *listen, mux, "appTracker listening", slog.String("portal", *itrURL))
}
