package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"p4p/internal/apptracker"
	"p4p/internal/core"
	"p4p/internal/federation"
	"p4p/internal/health"
	"p4p/internal/portal"
	"p4p/internal/telemetry"
	"p4p/internal/topology"
)

const (
	classSelect  = "select"
	classRefresh = "refresh"

	selectCandidates = 200
	selectM          = 20
	selectBodies     = 64 // distinct seeded /select requests
	refreshEvery     = 16 // caller 0 refreshes on every 16th op
	sequentialChecks = 64 // first requests compared with a direct Select
	routerTTL        = time.Millisecond
	viewTTL          = 30 * time.Second
)

// The /select wire types and route below mirror cmd/apptracker/main.go
// (selectRequest, selectResponse, errorResponse and writeJSON at its top;
// the "POST /select" route in main): same JSON field names, same default
// m, same mutex around the shared RNG, same 400 on a bad body.
// TestSelectWireShape pins the shape.
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

func writeJSON(logger *slog.Logger, w http.ResponseWriter, r *http.Request, status int, v interface{}) {
	body, err := json.Marshal(v)
	if err != nil {
		logger.Error("encode response",
			slog.String("request_id", telemetry.RequestID(r.Context())),
			slog.String("error", err.Error()))
		status = http.StatusInternalServerError
		body, _ = json.Marshal(errorResponse{Error: "response encoding failed"})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}

// selectRoute is cmd/apptracker's POST /select handler. stack is the
// one addition: with tracing on, the selection's spans parent to this
// request's span (the RNG mutex serialises selections, so one slot
// suffices).
func selectRoute(logger *slog.Logger, sel apptracker.Selector, rng *rand.Rand, stack *callStack) http.HandlerFunc {
	var rngMu sync.Mutex
	return func(w http.ResponseWriter, r *http.Request) {
		var req selectRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeJSON(logger, w, r, http.StatusBadRequest, errorResponse{Error: "bad request: " + err.Error()})
			return
		}
		if req.M <= 0 {
			req.M = selectM
		}
		rngMu.Lock()
		if stack != nil {
			stack.open = append(stack.open[:0], spanFrom(r.Context()))
		}
		idx := sel.Select(req.Self, req.Candidates, req.M, rng)
		rngMu.Unlock()
		if idx == nil {
			idx = []int{}
		}
		writeJSON(logger, w, r, http.StatusOK, selectResponse{Indices: idx, Policy: sel.Name()})
	}
}

// selectQuery is one seeded /select request.
type selectQuery struct {
	self  apptracker.Node
	cands []apptracker.Node
	body  []byte
}

func selectPool(rng *rand.Rand, g *topology.Graph, n, candidates int) ([]selectQuery, error) {
	pids := g.AggregationPIDs()
	pool := make([]selectQuery, n)
	for k := range pool {
		cands := make([]apptracker.Node, candidates)
		for i := range cands {
			pid := pids[rng.Intn(len(pids))]
			cands[i] = apptracker.Node{ID: i, PID: pid, ASN: g.Node(pid).ASN}
		}
		q := selectQuery{self: cands[rng.Intn(len(cands))], cands: cands}
		body, err := json.Marshal(selectRequest{Self: q.self, Candidates: cands, M: selectM})
		if err != nil {
			return nil, fmt.Errorf("encode select request: %w", err)
		}
		q.body = body
		pool[k] = q
	}
	return pool, nil
}

// fixedViews hands the oracle's selector one view.
type fixedViews struct{ v *core.View }

func (f fixedViews) ViewFor(int) apptracker.DistanceView { return f.v }

// fedSite is select-fed: the whole multi-ISP chain on loopback. Two
// ServePIDs-sharded portals over one AbileneVirtualISPs engine stand
// behind a federation router (the construction of p4pload's federation
// scenario, wired as cmd/itracker and cmd/p4pfed wire them); an
// appTracker wired as cmd/apptracker selects peers off the router's
// merged view.
type fedSite struct {
	srv      servers
	rec      *recorder
	g        *topology.Graph
	eng      *core.Engine
	shards   []*portalStack
	names    []string
	circuits []federation.Circuit
	router   *federation.Router
	views    *apptracker.PortalViews
	url      string // POST target

	callers [callers]*caller
	pool    []selectQuery
	loads   [][]float64

	refreshOps int64 // caller 0 only
}

func newFedSite(seed int64, rec *recorder) (s *fedSite, err error) {
	g := topology.AbileneVirtualISPs()
	eng := newPortalEngine(g)
	s = &fedSite{rec: rec, g: g, eng: eng}
	defer func() {
		if err != nil {
			s.close()
		}
	}()

	pidsByASN := map[int][]topology.PID{}
	for _, p := range g.AggregationPIDs() {
		pidsByASN[g.Node(p).ASN] = append(pidsByASN[g.Node(p).ASN], p)
	}
	asns := make([]int, 0, len(pidsByASN))
	for asn := range pidsByASN {
		asns = append(asns, asn)
	}
	sort.Ints(asns)
	nameOf := map[int]string{}
	var shardCfg []federation.ShardConfig
	for _, asn := range asns {
		name := fmt.Sprintf("isp%d", asn)
		nameOf[asn] = name
		ps, err := newPortalStack(rec, g, eng, name, asn, pidsByASN[asn])
		if err != nil {
			return s, err
		}
		s.shards = append(s.shards, ps)
		s.names = append(s.names, name)
		shardCfg = append(shardCfg, federation.ShardConfig{Name: name, BaseURL: ps.base})
	}
	for _, cut := range topology.InterdomainCuts(g) {
		l := g.Link(cut[0])
		s.circuits = append(s.circuits, federation.Circuit{
			A: nameOf[g.Node(l.Src).ASN], APID: l.Src,
			B: nameOf[g.Node(l.Dst).ASN], BPID: l.Dst,
			Cost: eng.Price(l.ID),
		})
	}

	// Router, as cmd/p4pfed: metrics, per-request logger, the same mux.
	// The TTL of 1 ms makes it revalidate its shards on every fetch the
	// appTracker makes.
	fcfg := federation.Config{Shards: shardCfg, Circuits: s.circuits, TTL: routerTTL, FailureBackoff: 5 * time.Second}
	if rec != nil {
		fcfg.Client = portal.NewClient("", "")
		fcfg.Client.HTTPClient = &http.Client{Timeout: 10 * time.Second, Transport: transport(rec, 0)}
	}
	rt, err := federation.NewRouter(fcfg)
	if err != nil {
		return s, fmt.Errorf("federation router: %w", err)
	}
	s.router = rt
	logger := discardLogger()
	freg := telemetry.NewRegistry()
	rt.Metrics = federation.NewRouterMetrics(freg)
	rt.Telemetry.Metrics = telemetry.NewHTTPMetrics(freg, "p4p_http")
	rt.Telemetry.Logger = logger
	rt.Telemetry.Preregister()
	fmux := http.NewServeMux()
	fmux.Handle("/p4p/", rt)
	fmux.Handle("GET /stats", rt)
	fmux.Handle("GET /healthz", rt)
	fmux.Handle("GET /readyz", rt)
	fmux.Handle("GET /metrics", telemetry.NewRuntimeMetrics(freg).Handler(freg.Handler()))
	routerURL, err := s.srv.serve(traced(rec, spanSrvRouter, fmux))
	if err != nil {
		return s, err
	}

	// appTracker, as cmd/apptracker in single-portal mode.
	areg := telemetry.NewRegistry()
	client := portal.NewClient(routerURL, "")
	client.Retry.MaxAttempts = 3
	client.Metrics = portal.NewClientMetrics(areg)
	views := apptracker.NewPortalViews(client, viewTTL)
	views.Logger = logger
	views.Metrics = apptracker.NewViewMetrics(areg)
	s.views = views
	var sel apptracker.Selector = &apptracker.P4P{Views: views}
	var stack *callStack
	if rec != nil {
		stack = &callStack{rec: rec}
		client.HTTPClient = &http.Client{Timeout: 10 * time.Second, Transport: transport(rec, 0)}
		views.Client = &tracedFetcher{stack: stack, next: client}
		sel = &tracedSelector{stack: stack, next: &apptracker.P4P{Views: &tracedViews{stack: stack, next: views}}}
	}
	mw := &telemetry.Middleware{Metrics: telemetry.NewHTTPMetrics(areg, "p4p_http"), Logger: logger}
	amux := http.NewServeMux()
	amux.Handle("POST /select", mw.RouteFunc("select", selectRoute(logger, sel, rand.New(rand.NewSource(seed)), stack)))
	amux.Handle("GET /stats", mw.RouteFunc("stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(logger, w, r, http.StatusOK, views.Stats())
	}))
	amux.Handle("GET /metrics", telemetry.NewRuntimeMetrics(areg).Handler(areg.Handler()))
	amux.Handle("GET /healthz", health.Handler())
	amux.Handle("GET /readyz", health.ReadyHandler(health.Check{
		Name:  "portal_view",
		Probe: func() (bool, string) { return views.Ready(3 * viewTTL), "portal view" },
	}))
	mw.Preregister()
	appURL, err := s.srv.serve(traced(rec, spanSrvSelect, amux))
	if err != nil {
		return s, err
	}
	s.url = appURL + "/select"

	rng := rand.New(rand.NewSource(seed + 1))
	if s.pool, err = selectPool(rng, g, selectBodies, selectCandidates); err != nil {
		return s, err
	}
	s.loads = loadPool(rng, g, 64)
	for c := range s.callers {
		s.callers[c] = newCaller(rec)
	}

	// Priming fetch, then the sequential oracle: with the server's RNG
	// fresh, its first answers must equal a direct P4P.Select on the
	// merge of the shards' own views, drawn from an identically seeded
	// RNG.
	if views.ViewFor(0) == nil {
		return s, errors.New("priming fetch: the appTracker got no view from the router")
	}
	want, err := s.directMerge()
	if err != nil {
		return s, err
	}
	oracle := &apptracker.P4P{Views: fixedViews{want}}
	orng := rand.New(rand.NewSource(seed))
	for k := 0; k < sequentialChecks; k++ {
		q := s.pool[k%len(s.pool)]
		got, err := s.selectOnce(0, q, spanRef{})
		if err != nil {
			return s, fmt.Errorf("sequential select %d: %w", k, err)
		}
		exp := oracle.Select(q.self, q.cands, selectM, orng)
		if len(got) != len(exp) {
			return s, fmt.Errorf("sequential select %d: %d indices, direct Select gives %d", k, len(got), len(exp))
		}
		for i := range exp {
			if got[i] != exp[i] {
				return s, fmt.Errorf("sequential select %d: index %d is %d, direct Select gives %d", k, i, got[i], exp[i])
			}
		}
	}
	return s, nil
}

// directMerge is the oracle's view: federation.Merge over the views the
// shard iTrackers hold, with no HTTP in between.
func (s *fedSite) directMerge() (*core.View, error) {
	svs := make([]federation.ShardView, len(s.shards))
	for i, ps := range s.shards {
		v, err := ps.tr.Distances("")
		if err != nil {
			return nil, fmt.Errorf("shard %s view: %w", s.names[i], err)
		}
		svs[i] = federation.ShardView{Name: s.names[i], View: v}
	}
	return federation.Merge(svs, s.circuits)
}

// selectOnce posts q and returns the indices, after the structural
// oracle: policy p4p, min(m, n-1) indices, distinct, in range, not self.
func (s *fedSite) selectOnce(c int, q selectQuery, root spanRef) ([]int, error) {
	rep, err := s.callers[c].fetch(root, http.MethodPost, s.url, q.body, "")
	if err != nil {
		return nil, err
	}
	chk := s.rec.begin(spanGenCheck, root)
	defer s.rec.end(chk, "")
	if rep.status != http.StatusOK {
		return nil, fmt.Errorf("status %d", rep.status)
	}
	var resp selectResponse
	if err := json.Unmarshal(rep.body, &resp); err != nil {
		return nil, fmt.Errorf("decode reply: %w", err)
	}
	want := selectM
	if n := len(q.cands) - 1; n < want {
		want = n
	}
	if resp.Policy != "p4p" || len(resp.Indices) != want {
		return nil, fmt.Errorf("policy %q with %d indices, want p4p with %d", resp.Policy, len(resp.Indices), want)
	}
	var seen [selectCandidates]bool
	for _, i := range resp.Indices {
		if i < 0 || i >= len(q.cands) || seen[i] || q.cands[i].ID == q.self.ID {
			return nil, fmt.Errorf("index %d out of range, repeated or self", i)
		}
		seen[i] = true
	}
	return resp.Indices, nil
}

func (s *fedSite) op(c, i int, root spanRef) outcome {
	q := s.pool[(i*callers+c)%len(s.pool)]
	if c != 0 || i%refreshEvery != refreshEvery-1 {
		_, err := s.selectOnce(c, q, root)
		return outcome{class: classSelect, ok: err == nil}
	}
	// Refresh op: move the prices, expire the appTracker's view, select.
	// The select (or the other caller's, if it gets there first) pays
	// fetch -> router refresh -> two shard fetches and decodes -> Merge
	// -> render -> transfer -> decode. The op ends once the appTracker
	// holds the bumped version.
	s.refreshOps++
	t0 := time.Now()
	l := s.rec.begin(spanUpdate, root)
	s.shards[0].tr.ObserveAndUpdate(s.loads[(i/refreshEvery)%len(s.loads)])
	s.rec.end(l, "")
	// Merge sums the shard versions, and both shards serve this engine.
	want := len(s.shards) * s.eng.Version()
	s.views.Invalidate()
	_, err := s.selectOnce(c, q, root)
	var held *core.View
	for err == nil {
		var ok bool
		if held, _, ok = s.views.LastKnownGood(); ok && held.Version >= want {
			break
		}
		if time.Since(t0) > 2*time.Second {
			err = fmt.Errorf("appTracker does not hold version %d two seconds after the update", want)
		}
		time.Sleep(20 * time.Microsecond)
	}
	fresh := time.Since(t0)
	if err == nil {
		var direct *core.View
		if direct, err = s.directMerge(); err == nil {
			err = sameView(held, direct)
		}
	}
	return outcome{class: classRefresh, ok: err == nil, fresh: fresh}
}

func (s *fedSite) quiesce() error { return nil }

func (s *fedSite) counters() map[string]int64 {
	m := map[string]int64{"refresh_ops": s.refreshOps}
	for _, sh := range s.router.Stats().Shards {
		m["backend_fetches"] += sh.Refreshes
	}
	vs := s.views.Stats()
	m["view_refreshes"] = vs.Refreshes
	m["coalesces"] = vs.Coalesces
	return m
}

func (s *fedSite) close() {
	s.srv.close()
	for _, ps := range s.shards {
		ps.srv.close()
	}
}
