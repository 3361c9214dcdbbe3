package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	"p4p/internal/apptracker"
	"p4p/internal/core"
	"p4p/internal/federation"
	"p4p/internal/portal"
	"p4p/internal/telemetry"
	"p4p/internal/topology"
)

// The probes are the ladder's direct rungs: timed loops over public
// functions on the workloads' own data, one layer at a time, from
// outside the packages they measure.

// probeBatches is how many equal batches a timed loop is cut into; the
// reported cost is the median batch's mean, so a hiccup in one batch
// does not move it.
const probeBatches = 7

// perOp times n calls of fn in batches and returns nanoseconds per call.
func perOp(n int, fn func()) float64 {
	per := n / probeBatches
	if per < 1 {
		per = 1
	}
	means := make([]float64, probeBatches)
	for b := range means {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			fn()
		}
		means[b] = float64(time.Since(t0).Nanoseconds()) / float64(per)
	}
	sort.Float64s(means)
	return means[probeBatches/2]
}

// perCall runs setup untimed before each timed call of fn and returns
// the median call in nanoseconds.
func perCall(n int, setup, fn func()) float64 {
	d := make([]float64, n)
	for i := range d {
		setup()
		t0 := time.Now()
		fn()
		d[i] = float64(time.Since(t0).Nanoseconds())
	}
	sort.Float64s(d)
	return d[n/2]
}

// discardWriter is a ResponseWriter that keeps the status and drops the
// body, so a handler probe times the handler and nothing else.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header  { return w.h }
func (w *discardWriter) WriteHeader(code int) { w.status = code }

func (w *discardWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return len(p), nil
}

// probeSet collects the per-layer metrics the probes produce.
type probeSet struct {
	metrics  map[string]float64
	problems []string
	scale    int // divides iteration counts; 1 for a real run
}

func (p *probeSet) n(full int) int {
	if n := full / p.scale; n > probeBatches {
		return n
	}
	return probeBatches
}

// serveExpect calls h and records a problem when the status is not want.
func (p *probeSet) serveExpect(h http.Handler, w *discardWriter, r *http.Request, want int, what string) {
	w.status = 0
	h.ServeHTTP(w, r)
	if w.status != want {
		p.problems = append(p.problems, fmt.Sprintf("probe %s: status %d, want %d", what, w.status, want))
	}
}

func runProbes(seed int64, smoke bool) (*probeSet, error) {
	p := &probeSet{metrics: map[string]float64{}, scale: 1}
	if smoke {
		p.scale = 20
	}
	rng := rand.New(rand.NewSource(seed))
	if err := p.portalProbes(rng); err != nil {
		return nil, err
	}
	if err := p.loopbackProbes(); err != nil {
		return nil, err
	}
	if err := p.federationProbes(rng); err != nil {
		return nil, err
	}
	return p, nil
}

// portalProbes covers topology, core, itracker, portal and telemetry on
// ISP-B, the graph of the two portal workloads.
func (p *probeSet) portalProbes(rng *rand.Rand) error {
	g := topology.ISPB()
	p.metrics["topology.routing_ms"] = perOp(p.n(70), func() { topology.ComputeRouting(g) }) / 1e6

	ps, err := newPortalStack(nil, g, nil, g.Name, g.Node(0).ASN, nil)
	if err != nil {
		return err
	}
	defer ps.srv.close()
	loads := loadPool(rng, g, 16)
	k := 0
	bump := func() {
		ps.tr.ObserveAndUpdate(loads[k%len(loads)])
		k++
	}
	pids := g.AggregationPIDs()

	p.metrics["core.update_us"] = perOp(p.n(7000), func() {
		ps.eng.ObserveTraffic(loads[k%len(loads)])
		ps.eng.Update()
		k++
	}) / 1e3
	p.metrics["core.matrix_us"] = perOp(p.n(1400), func() { ps.eng.Matrix(pids) }) / 1e3

	if _, err := ps.tr.Distances(""); err != nil {
		return fmt.Errorf("probe view: %w", err)
	}
	p.metrics["itracker.view_hit_ns"] = perOp(p.n(700000), func() { ps.tr.Distances("") })
	p.metrics["itracker.recompute_us"] = perCall(p.n(700), bump, func() { ps.tr.Distances("") }) / 1e3

	// Handler rungs: a bare handler (inert telemetry), then the same
	// handler instrumented as cmd/itracker instruments it; the
	// difference is the middleware.
	bare := portal.NewHandler(ps.tr)
	w := &discardWriter{h: http.Header{}}
	get := httptest.NewRequest(http.MethodGet, distancesPath, nil)
	p.serveExpect(bare, w, get, http.StatusOK, "portal prime")
	reval := httptest.NewRequest(http.MethodGet, distancesPath, nil)
	reval.Header.Set("If-None-Match", w.h.Get("Etag"))
	view, err := ps.tr.Distances("")
	if err != nil {
		return fmt.Errorf("probe view: %w", err)
	}
	batches, err := batchPool(rng, view)
	if err != nil {
		return err
	}
	p.metrics["portal.handler_200_ns"] = perOp(p.n(350000), func() { p.serveExpect(bare, w, get, http.StatusOK, "portal 200") })
	bare304 := perOp(p.n(700000), func() { p.serveExpect(bare, w, reval, http.StatusNotModified, "portal 304") })
	p.metrics["portal.handler_304_ns"] = bare304
	batchBody := bytes.NewReader(batches[0].body)
	post := httptest.NewRequest(http.MethodPost, batchPath, batchBody)
	p.metrics["portal.handler_batch_ns"] = perOp(p.n(70000), func() {
		batchBody.Reset(batches[0].body)
		p.serveExpect(bare, w, post, http.StatusOK, "portal batch")
	})
	p.metrics["portal.handler_miss_us"] = perCall(p.n(350), bump, func() { p.serveExpect(bare, w, get, http.StatusOK, "portal miss") }) / 1e3

	wired := portal.NewHandler(ps.tr)
	wired.Telemetry.Metrics = telemetry.NewHTTPMetrics(telemetry.NewRegistry(), "p4p_http")
	wired.Telemetry.Logger = discardLogger()
	wired.Telemetry.Preregister()
	p.serveExpect(wired, w, get, http.StatusOK, "wired prime")
	reval.Header.Set("If-None-Match", w.h.Get("Etag"))
	wired304 := perOp(p.n(350000), func() { p.serveExpect(wired, w, reval, http.StatusNotModified, "wired 304") })
	p.metrics["telemetry.middleware_ns"] = wired304 - bare304

	// Wire form.
	body, err := json.Marshal(portal.ToWire(view))
	if err != nil {
		return fmt.Errorf("probe encode: %w", err)
	}
	p.metrics["portal.body_bytes"] = float64(len(body) + 1) // the served body ends in a newline
	p.metrics["portal.encode_us"] = perOp(p.n(700), func() { json.Marshal(portal.ToWire(view)) }) / 1e3
	p.metrics["portal.decode_us"] = perOp(p.n(350), func() {
		var vw portal.ViewWire
		if json.Unmarshal(body, &vw) == nil {
			portal.FromWire(&vw)
		}
	}) / 1e3

	// The portal client over loopback against the wired portal.
	cl := portal.NewClient(ps.base, "")
	cl.HTTPClient = &http.Client{Transport: transport(nil, 1), Timeout: 30 * time.Second}
	fetch := func() {
		if _, err := cl.DistancesContext(context.Background()); err != nil {
			p.problems = append(p.problems, "probe client fetch: "+err.Error())
		}
	}
	fetch()
	p.metrics["portal.client_304_us"] = perOp(p.n(7000), fetch) / 1e3
	p.metrics["portal.client_200_us"] = perCall(p.n(350), bump, fetch) / 1e3
	return nil
}

// loopbackProbes measures the floor: a static handler behind the same
// http.Server, answering with the two reply sizes portal-steady sees.
func (p *probeSet) loopbackProbes() error {
	body := make([]byte, int(p.metrics["portal.body_bytes"]))
	for i := range body {
		body[i] = '1'
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/304", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusNotModified) })
	mux.HandleFunc("/60k", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	})
	var srv servers
	base, err := srv.serve(mux)
	if err != nil {
		return err
	}
	defer srv.close()
	cl := newCaller(nil)
	get := func(path string, want, size int) func() {
		return func() {
			rep, err := cl.fetch(spanRef{}, http.MethodGet, base+path, nil, "")
			if err != nil || rep.status != want || len(rep.body) != size {
				p.problems = append(p.problems, fmt.Sprintf("probe loopback %s: status %d, %d bytes, %v", path, rep.status, len(rep.body), err))
			}
		}
	}
	p.metrics["nethttp.null_304_us"] = perOp(p.n(14000), get("/304", http.StatusNotModified, 0)) / 1e3
	p.metrics["nethttp.null_60k_us"] = perOp(p.n(7000), get("/60k", http.StatusOK, len(body))) / 1e3
	return nil
}

// federationProbes covers federation and apptracker on the two-ISP
// Abilene split of select-fed.
func (p *probeSet) federationProbes(rng *rand.Rand) error {
	s, err := newFedSite(rng.Int63(), nil)
	if err != nil {
		return err
	}
	defer s.close()
	k := 0
	bump := func() {
		s.shards[0].tr.ObserveAndUpdate(s.loads[k%len(s.loads)])
		k++
	}
	svs := make([]federation.ShardView, len(s.shards))
	for i, ps := range s.shards {
		v, err := ps.tr.Distances("")
		if err != nil {
			return fmt.Errorf("probe shard view: %w", err)
		}
		svs[i] = federation.ShardView{Name: s.names[i], View: v}
	}
	merged, err := federation.Merge(svs, s.circuits)
	if err != nil {
		return fmt.Errorf("probe merge: %w", err)
	}
	p.metrics["federation.merge_us"] = perOp(p.n(14000), func() { federation.Merge(svs, s.circuits) }) / 1e3

	// The site's router revalidates on every call (TTL 1 ms, each probe
	// call takes longer); a second router with the default TTL serves
	// its published merge.
	w := &discardWriter{h: http.Header{}}
	get := httptest.NewRequest(http.MethodGet, distancesPath, nil)
	cfg := federation.Config{Circuits: s.circuits}
	for i, ps := range s.shards {
		cfg.Shards = append(cfg.Shards, federation.ShardConfig{Name: s.names[i], BaseURL: ps.base})
	}
	cached, err := federation.NewRouter(cfg)
	if err != nil {
		return fmt.Errorf("probe router: %w", err)
	}
	p.serveExpect(cached, w, get, http.StatusOK, "router prime")
	p.metrics["federation.serve_200_ns"] = perOp(p.n(350000), func() { p.serveExpect(cached, w, get, http.StatusOK, "router 200") })
	wait := func() { time.Sleep(2 * routerTTL) }
	p.metrics["federation.refresh_same_us"] = perCall(p.n(350), wait, func() { p.serveExpect(s.router, w, get, http.StatusOK, "router refresh") }) / 1e3
	p.metrics["federation.refresh_changed_us"] = perCall(p.n(350), func() { bump(); wait() },
		func() { p.serveExpect(s.router, w, get, http.StatusOK, "router refresh") }) / 1e3

	// Selection on the merged view, at the workload's size and at ten
	// times it.
	sel := &apptracker.P4P{Views: fixedViews{merged}}
	for _, size := range []struct {
		metric string
		cands  int
		iters  int
	}{{"apptracker.select_us", selectCandidates, 3500}, {"apptracker.select_2k_us", 10 * selectCandidates, 350}} {
		pool, err := selectPool(rng, s.g, 8, size.cands)
		if err != nil {
			return err
		}
		srng := rand.New(rand.NewSource(1))
		i := 0
		one := func() {
			q := pool[i%len(pool)]
			sel.Select(q.self, q.cands, selectM, srng)
			i++
		}
		var m0, m1 runtime.MemStats
		n := p.n(size.iters)
		runtime.ReadMemStats(&m0)
		for j := 0; j < n; j++ {
			one()
		}
		runtime.ReadMemStats(&m1)
		if size.cands == selectCandidates {
			p.metrics["apptracker.select_allocs"] = float64(m1.Mallocs-m0.Mallocs) / float64(n)
			p.metrics["apptracker.select_bytes"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
		}
		p.metrics[size.metric] = perOp(n, one) / 1e3
	}
	held := apptracker.NewPortalViews(heldView{merged}, viewTTL)
	if held.ViewFor(0) == nil {
		return fmt.Errorf("probe viewfor: no view")
	}
	p.metrics["apptracker.viewfor_hit_ns"] = perOp(p.n(700000), func() { held.ViewFor(0) })
	return nil
}

// heldView is a ViewFetcher that already has the view.
type heldView struct{ v *core.View }

func (h heldView) DistancesContext(context.Context) (*core.View, error) { return h.v, nil }
