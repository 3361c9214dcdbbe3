package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"time"

	"p4p/internal/core"
	"p4p/internal/health"
	"p4p/internal/itracker"
	"p4p/internal/portal"
	"p4p/internal/telemetry"
	"p4p/internal/topology"
)

const (
	distancesPath = "/p4p/v1/distances"
	batchPath     = "/p4p/v1/distances/batch"
)

// portalStack is one ISP's portal on loopback, wired as cmd/itracker
// wires it (main.go there, from NewEngine to the mux): engine, iTracker
// with its metrics, handler with HTTP metrics and a per-request logger,
// a primed view, /metrics, /healthz and /readyz beside /p4p/. Tracing is
// off, as it is there by default.
type portalStack struct {
	srv  servers
	g    *topology.Graph
	eng  *core.Engine
	tr   *itracker.Server
	base string
}

// newPortalStack serves g. serve restricts the external view to those
// PIDs (a federation shard) and shares eng; pass nil for both to get a
// whole-ISP portal with its own engine.
func newPortalStack(rec *recorder, g *topology.Graph, eng *core.Engine, name string, asn int, serve []topology.PID) (*portalStack, error) {
	if eng == nil {
		eng = newPortalEngine(g)
	}
	tr := itracker.New(itracker.Config{
		Name:      name,
		ASN:       asn,
		ServePIDs: serve,
		Policy:    itracker.Policy{NearCongestionUtil: 0.7, HeavyUsageUtil: 0.9},
	}, eng, itracker.SyntheticPIDMap(g))
	reg := telemetry.NewRegistry()
	tr.Metrics = itracker.NewMetrics(reg)
	h := portal.NewHandler(tr)
	h.Telemetry.Metrics = telemetry.NewHTTPMetrics(reg, "p4p_http")
	h.Telemetry.Logger = discardLogger()
	h.Telemetry.Preregister()
	if _, err := tr.Distances(""); err != nil {
		return nil, fmt.Errorf("prime view of %s: %w", name, err)
	}
	rm := telemetry.NewRuntimeMetrics(reg)
	mux := http.NewServeMux()
	mux.Handle("/p4p/", h)
	mux.Handle("GET /metrics", rm.Handler(reg.Handler()))
	mux.Handle("GET /healthz", health.Handler())
	mux.Handle("GET /readyz", health.ReadyHandler(health.Check{
		Name:  "view",
		Probe: func() (bool, string) { return tr.Ready(), "distance view" },
	}))
	p := &portalStack{g: g, eng: eng, tr: tr}
	base, err := p.srv.serve(traced(rec, spanSrvPortal, mux))
	if err != nil {
		return nil, err
	}
	p.base = base
	return p, nil
}

// newPortalEngine is cmd/itracker's engine at its default flags: MLU
// objective, step 0.1, no perturbation.
func newPortalEngine(g *topology.Graph) *core.Engine {
	return core.NewEngine(g, topology.ComputeRouting(g), core.Config{StepSize: 0.1, Objective: core.MinimizeMLU})
}

// loadPool draws n link-load vectors for ObserveAndUpdate: each link
// carries a seeded share, up to 80 %, of its capacity.
func loadPool(rng *rand.Rand, g *topology.Graph, n int) [][]float64 {
	pool := make([][]float64, n)
	for k := range pool {
		v := make([]float64, g.NumLinks())
		for i, l := range g.Links() {
			v[i] = rng.Float64() * 0.8 * l.CapacityBps
		}
		pool[k] = v
	}
	return pool
}

// sameView reports whether two views hold the same PIDs, version and
// distances, bit for bit (+Inf equals +Inf).
func sameView(a, b *core.View) error {
	if a.Version != b.Version {
		return fmt.Errorf("version %d, want %d", a.Version, b.Version)
	}
	if len(a.PIDs) != len(b.PIDs) || len(a.D) != len(b.D) {
		return fmt.Errorf("%d PIDs, want %d", len(a.PIDs), len(b.PIDs))
	}
	for i := range a.PIDs {
		if a.PIDs[i] != b.PIDs[i] {
			return fmt.Errorf("PID %d at row %d, want %d", a.PIDs[i], i, b.PIDs[i])
		}
		for j := range a.D[i] {
			if a.D[i][j] != b.D[i][j] {
				return fmt.Errorf("distance (%d,%d) = %v, want %v", i, j, a.D[i][j], b.D[i][j])
			}
		}
	}
	return nil
}

// wellFormed checks the shape every decoded view must have: square,
// zero diagonal, no NaN.
func wellFormed(v *core.View) error {
	if len(v.D) != len(v.PIDs) {
		return fmt.Errorf("%d rows for %d PIDs", len(v.D), len(v.PIDs))
	}
	for i, row := range v.D {
		if len(row) != len(v.PIDs) {
			return fmt.Errorf("row %d has %d columns for %d PIDs", i, len(row), len(v.PIDs))
		}
		if row[i] != 0 {
			return fmt.Errorf("diagonal (%d,%d) = %v", i, i, row[i])
		}
		for j, d := range row {
			if math.IsNaN(d) {
				return fmt.Errorf("NaN at (%d,%d)", i, j)
			}
		}
	}
	return nil
}

// --- portal-steady ---

const (
	classReval = "reval"
	classFull  = "full"
	classBatch = "batch"

	batchPairs    = 16   // pairs per batch request
	batchBodies   = 64   // distinct seeded batch requests
	scheduleSlots = 4096 // ops per caller before the schedule repeats
)

// steadyOp is one slot of a caller's seeded schedule.
type steadyOp struct {
	class string
	batch int // index into the batch pool, for classBatch
}

// steadySchedule draws the op mix: 70 % revalidations, 15 % full
// fetches, 15 % batch queries.
func steadySchedule(rng *rand.Rand, n int) []steadyOp {
	s := make([]steadyOp, n)
	for i := range s {
		switch x := rng.Float64(); {
		case x < 0.70:
			s[i] = steadyOp{class: classReval}
		case x < 0.85:
			s[i] = steadyOp{class: classFull}
		default:
			s[i] = steadyOp{class: classBatch, batch: rng.Intn(batchBodies)}
		}
	}
	return s
}

// batchQuery is one seeded batch request with the answer the oracle
// expects for it.
type batchQuery struct {
	body []byte
	want []float64 // wire form: -1 for unreachable
}

func batchPool(rng *rand.Rand, view *core.View) ([]batchQuery, error) {
	pool := make([]batchQuery, batchBodies)
	for k := range pool {
		req := portal.BatchRequestWire{Pairs: make([]portal.PIDPair, batchPairs)}
		want := make([]float64, batchPairs)
		for i := range req.Pairs {
			src := view.PIDs[rng.Intn(len(view.PIDs))]
			dst := view.PIDs[rng.Intn(len(view.PIDs))]
			req.Pairs[i] = portal.PIDPair{Src: src, Dst: dst}
			want[i] = view.Distance(src, dst)
			if math.IsInf(want[i], 0) {
				want[i] = portal.Unreachable
			}
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, fmt.Errorf("encode batch request: %w", err)
		}
		pool[k] = batchQuery{body: body, want: want}
	}
	return pool, nil
}

// steadySite is portal-steady: one ISP-B portal whose prices never move
// during the timed phases, so every request is served from the caches.
type steadySite struct {
	*portalStack
	rec     *recorder
	callers [callers]*caller
	sched   [callers][]steadyOp
	batches []batchQuery
	loads   [][]float64

	served [callers][3]int64 // replies per caller: reval, full, batch

	// The primed reply every later 200 must repeat byte for byte.
	body    []byte
	etag    string
	version int
}

func newSteadySite(seed int64, rec *recorder) (*steadySite, error) {
	g := topology.ISPB()
	ps, err := newPortalStack(rec, g, nil, g.Name, g.Node(0).ASN, nil)
	if err != nil {
		return nil, err
	}
	s := &steadySite{portalStack: ps, rec: rec}
	rng := rand.New(rand.NewSource(seed))
	for c := range s.callers {
		s.callers[c] = newCaller(rec)
		s.sched[c] = steadySchedule(rng, scheduleSlots)
	}
	s.loads = loadPool(rng, g, 8)
	// Priming fetch: the body, ETag and version the oracle pins, and a
	// decode that must equal the iTracker's own view exactly.
	rep, err := s.callers[0].fetch(spanRef{}, http.MethodGet, s.base+distancesPath, nil, "")
	if err != nil {
		s.close()
		return nil, fmt.Errorf("priming fetch: %w", err)
	}
	if rep.status != http.StatusOK || rep.etag == "" {
		s.close()
		return nil, fmt.Errorf("priming fetch: status %d, ETag %q", rep.status, rep.etag)
	}
	s.body = append([]byte(nil), rep.body...)
	s.etag = rep.etag
	var w portal.ViewWire
	if err := json.Unmarshal(s.body, &w); err != nil {
		s.close()
		return nil, fmt.Errorf("decode primed body: %w", err)
	}
	got, err := portal.FromWire(&w)
	if err == nil {
		var want *core.View
		if want, err = s.tr.Distances(""); err == nil {
			err = sameView(got, want)
		}
	}
	if err != nil {
		s.close()
		return nil, fmt.Errorf("primed view against the iTracker's: %w", err)
	}
	s.version = got.Version
	if s.batches, err = batchPool(rng, got); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *steadySite) op(c, i int, root spanRef) outcome {
	o := s.sched[c][i%scheduleSlots]
	cl := s.callers[c]
	var rep reply
	var err error
	switch o.class {
	case classReval:
		rep, err = cl.fetch(root, http.MethodGet, s.base+distancesPath, nil, s.etag)
		s.served[c][0]++
	case classFull:
		rep, err = cl.fetch(root, http.MethodGet, s.base+distancesPath, nil, "")
		s.served[c][1]++
	default:
		rep, err = cl.fetch(root, http.MethodPost, s.base+batchPath, s.batches[o.batch].body, "")
		s.served[c][2]++
	}
	chk := s.rec.begin(spanGenCheck, root)
	ok := err == nil && s.check(o, rep)
	s.rec.end(chk, "")
	return outcome{class: o.class, ok: ok}
}

// check is the oracle: a 304 carries the primed ETag, a 200 repeats the
// primed body and ETag (a byte comparison, stricter than length plus
// hash), a batch answer equals view.Distance pair by pair.
func (s *steadySite) check(o steadyOp, rep reply) bool {
	switch o.class {
	case classReval:
		return rep.status == http.StatusNotModified && rep.etag == s.etag && len(rep.body) == 0
	case classFull:
		return rep.status == http.StatusOK && rep.etag == s.etag && bytes.Equal(rep.body, s.body)
	}
	if rep.status != http.StatusOK {
		return false
	}
	var w portal.BatchResponseWire
	if json.Unmarshal(rep.body, &w) != nil || w.Version != s.version {
		return false
	}
	want := s.batches[o.batch].want
	if len(w.Distances) != len(want) {
		return false
	}
	for k := range want {
		if w.Distances[k] != want[k] {
			return false
		}
	}
	return true
}

func (s *steadySite) quiesce() error { return nil }

func (s *steadySite) counters() map[string]int64 {
	m := map[string]int64{"recomputes": s.tr.ViewRecomputes()}
	for c := range s.served {
		m["full200"] += s.served[c][1]
		m["responses"] += s.served[c][0] + s.served[c][1] + s.served[c][2]
	}
	return m
}

// freshness measures, on the now idle portal, n times how long a price
// update takes to reach a client: ObserveAndUpdate start until the
// client holds the decoded view of the bumped version. It ends the
// site's steady state, so it runs after the timed phases.
func (s *steadySite) freshness(n int) ([]time.Duration, error) {
	cl := portal.NewClient(s.base, "")
	cl.HTTPClient = s.callers[0].hc
	out := make([]time.Duration, 0, n)
	for k := 0; k < n; k++ {
		t0 := time.Now()
		s.tr.ObserveAndUpdate(s.loads[k%len(s.loads)])
		want := s.eng.Version()
		v, err := cl.DistancesContext(context.Background())
		d := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("poll after update: %w", err)
		}
		if v.Version < want {
			return nil, fmt.Errorf("poll after update holds version %d, want at least %d", v.Version, want)
		}
		out = append(out, d)
	}
	return out, nil
}

func (s *steadySite) close() { s.srv.close() }

// --- portal-churn ---

const (
	classUpdate = "update"
	classPoll   = "poll"

	churnClients = 7 // polls per price update, each by its own client
	churnCycle   = churnClients + 1
)

// churnCaller is one generator goroutine of portal-churn: seven portal
// clients, each with its own ETag cache, over the caller's connection.
type churnCaller struct {
	*caller
	clients  [churnClients]*portal.Client
	last     [churnClients]int // last version each client held
	bumped   int               // engine version after this caller's last update
	updateAt time.Time
}

// churnSite is portal-churn: the same portal with prices moving under
// the readers, so every poll transfers and decodes a new view.
type churnSite struct {
	*portalStack
	rec     *recorder
	callers [callers]*churnCaller
	loads   [][]float64
	cm      *portal.ClientMetrics // shared by all clients, as cmd/apptracker instruments its one
	updates [callers]int64
	polls   [callers]int64
}

func newChurnSite(seed int64, rec *recorder) (*churnSite, error) {
	g := topology.ISPB()
	ps, err := newPortalStack(rec, g, nil, g.Name, g.Node(0).ASN, nil)
	if err != nil {
		return nil, err
	}
	s := &churnSite{portalStack: ps, rec: rec}
	s.loads = loadPool(rand.New(rand.NewSource(seed)), g, 64)
	s.cm = portal.NewClientMetrics(telemetry.NewRegistry())
	for c := range s.callers {
		cc := &churnCaller{caller: newCaller(rec)}
		for k := range cc.clients {
			cc.clients[k] = portal.NewClient(s.base, "")
			cc.clients[k].HTTPClient = cc.hc
			cc.clients[k].Metrics = s.cm
		}
		s.callers[c] = cc
	}
	// Priming fetch: the first poll of every client moves the full body.
	for _, cc := range s.callers {
		for k, cl := range cc.clients {
			v, err := cl.DistancesContext(context.Background())
			if err != nil {
				s.close()
				return nil, fmt.Errorf("priming fetch: %w", err)
			}
			cc.last[k] = v.Version
		}
	}
	return s, nil
}

func (s *churnSite) op(c, i int, root spanRef) outcome {
	cc := s.callers[c]
	pos := i % churnCycle
	if pos == 0 {
		// Caller c walks the load pool from its own offset.
		loads := s.loads[(i/churnCycle*callers+c)%len(s.loads)]
		l := s.rec.begin(spanUpdate, root)
		cc.updateAt = time.Now()
		s.tr.ObserveAndUpdate(loads)
		cc.bumped = s.eng.Version()
		s.rec.end(l, "")
		s.updates[c]++
		return outcome{class: classUpdate, ok: true, uncounted: true}
	}
	k := pos - 1
	l := s.rec.begin(spanClientFetch, root)
	ctx := context.Background()
	if s.rec != nil {
		ctx = withSpan(ctx, l.spanRef)
	}
	v, err := cc.clients[k].DistancesContext(ctx)
	s.rec.end(l, "")
	done := time.Now()
	s.polls[c]++
	chk := s.rec.begin(spanGenCheck, root)
	ok := err == nil && v.Version >= cc.bumped && v.Version >= cc.last[k] && wellFormed(v) == nil
	if ok {
		cc.last[k] = v.Version
	}
	s.rec.end(chk, "")
	out := outcome{class: classPoll, ok: ok}
	if k == 0 && ok && !cc.updateAt.IsZero() {
		out.fresh = done.Sub(cc.updateAt)
	}
	return out
}

// quiesce checks, with both callers stopped, that a fetched view equals
// the engine's own matrix exactly.
func (s *churnSite) quiesce() error {
	got, err := s.callers[0].clients[0].DistancesContext(context.Background())
	if err != nil {
		return fmt.Errorf("fetch after quiescing: %w", err)
	}
	if err := wellFormed(got); err != nil {
		return err
	}
	if err := sameView(got, s.eng.Matrix(s.g.AggregationPIDs())); err != nil {
		return fmt.Errorf("fetched view against Engine.Matrix: %w", err)
	}
	if got.Version < s.callers[0].last[0] {
		return errors.New("version went backwards after quiescing")
	}
	s.callers[0].last[0] = got.Version
	return nil
}

func (s *churnSite) counters() map[string]int64 {
	polls := s.polls[0] + s.polls[1]
	return map[string]int64{
		"recomputes": s.tr.ViewRecomputes(),
		"updates":    s.updates[0] + s.updates[1],
		"full200":    polls - int64(s.cm.ETagHits.Value()), // a poll is a 200 unless the client counted a 304
		"responses":  polls,
	}
}

func (s *churnSite) close() { s.srv.close() }
