package federation

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p4p/internal/core"
	"p4p/internal/leaktest"
	"p4p/internal/portal"
	"p4p/internal/telemetry"
	"p4p/internal/topology"
	"p4p/internal/trace"
)

// fakeClock drives the router's TTL and backoff windows without
// sleeping.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// fakeBackend is a scriptable stand-in for one shard portal: it serves
// /p4p/v1/distances with ETag revalidation (in binary to a request that
// asks for it, unless jsonOnly), and can be flipped into a failure mode.
type fakeBackend struct {
	mu       sync.Mutex
	view     *core.View
	fail     bool
	jsonOnly bool   // a portal from before the binary form
	etag     string // when set, the ETag served instead of one from the version
	gets     int    // 200 responses served on distances
	binary   int    // of those, in binary
	nmods    int    // 304 responses served
}

func (f *fakeBackend) etagLocked() string {
	if f.etag != "" {
		return f.etag
	}
	return fmt.Sprintf("%q", fmt.Sprintf("fake-v%d", f.view.Version))
}

func (f *fakeBackend) setView(v *core.View) {
	f.mu.Lock()
	f.view = v
	f.mu.Unlock()
}

func (f *fakeBackend) setFail(fail bool) {
	f.mu.Lock()
	f.fail = fail
	f.mu.Unlock()
}

func (f *fakeBackend) counts() (gets, nmods int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.gets, f.nmods
}

func (f *fakeBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Snapshot under the lock, write without it (lockheld: never hold a
	// mutex across ResponseWriter calls).
	asked := strings.Contains(r.Header.Get("Accept"), portal.BinaryViewType)
	f.mu.Lock()
	fail, view, etag := f.fail, f.view, f.etagLocked()
	asked = asked && !f.jsonOnly
	f.mu.Unlock()
	if fail {
		http.Error(w, `{"error":"injected failure"}`, http.StatusInternalServerError)
		return
	}
	switch r.URL.Path {
	case "/p4p/v1/distances":
		if inm := r.Header.Get("If-None-Match"); inm != "" && inm == etag {
			f.mu.Lock()
			f.nmods++
			f.mu.Unlock()
			w.Header().Set("ETag", etag)
			w.WriteHeader(http.StatusNotModified)
			return
		}
		f.mu.Lock()
		f.gets++
		if asked {
			f.binary++
		}
		f.mu.Unlock()
		w.Header().Set("ETag", etag)
		if asked {
			body, err := portal.EncodeView(view, portal.FormBinary)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", portal.BinaryViewType)
			w.Write(body)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(portal.ToWire(view))
	default:
		http.NotFound(w, r)
	}
}

// fastClient is a client template with no retries and short attempt
// timeouts, so failure-path tests do not sit in backoff sleeps.
func fastClient() *portal.Client {
	c := portal.NewClient("", "")
	c.Retry = portal.RetryPolicy{MaxAttempts: 1, PerAttempt: 2 * time.Second}
	return c
}

// testFederation wires two fake backends behind a router:
// shard a = PIDs {0,1}, shard b = PIDs {10,11}, one circuit 1-10 @ 7.
func testFederation(t *testing.T, extra ...ShardConfig) (*Router, *fakeClock, *fakeBackend, *fakeBackend) {
	t.Helper()
	fa := &fakeBackend{view: viewA()}
	fb := &fakeBackend{view: viewB()}
	sa := httptest.NewServer(fa)
	sb := httptest.NewServer(fb)
	t.Cleanup(sa.Close)
	t.Cleanup(sb.Close)
	cfg := Config{
		Shards: append([]ShardConfig{
			{Name: "a", BaseURL: sa.URL},
			{Name: "b", BaseURL: sb.URL},
		}, extra...),
		Circuits: []Circuit{{A: "a", APID: 1, B: "b", BPID: 10, Cost: 7}},
		TTL:      30 * time.Second,
		Client:   fastClient(),
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	rt.nowFn = clk.now
	return rt, clk, fa, fb
}

func get(t *testing.T, h http.Handler, path string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func decodeView(t *testing.T, body []byte) *core.View {
	t.Helper()
	var w portal.ViewWire
	if err := json.Unmarshal(body, &w); err != nil {
		t.Fatalf("decode view: %v", err)
	}
	v, err := portal.FromWire(&w)
	if err != nil {
		t.Fatalf("FromWire: %v", err)
	}
	return v
}

func TestRouterServesMergedView(t *testing.T) {
	rt, _, _, _ := testFederation(t)
	rec := get(t, rt, "/p4p/v1/distances", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.Bytes())
	}
	v := decodeView(t, rec.Body.Bytes())
	want := []topology.PID{0, 1, 10, 11}
	if len(v.PIDs) != 4 {
		t.Fatalf("merged PIDs = %v, want %v", v.PIDs, want)
	}
	if got := v.Distance(0, 11); got != 2+7+4 {
		t.Errorf("cross-shard d(0,11) = %v, want 13", got)
	}
	if got := v.Distance(0, 1); got != 2 {
		t.Errorf("intra-shard d(0,1) = %v, want 2", got)
	}
	for _, form := range []string{"ranks", "bogus"} {
		if rec := get(t, rt, "/p4p/v1/distances?form="+form, nil); rec.Code != http.StatusBadRequest {
			t.Errorf("%s form status = %d, want 400", form, rec.Code)
		}
	}
}

// TestRouterTracedRefresh serves one traced request through a cold
// router: the server span parents federation_refresh, which parents a
// client request span and an attempt per shard, and the encode of the
// one form asked for. Every span ends before its root, and no refresh
// goroutine outlives the request.
func TestRouterTracedRefresh(t *testing.T) {
	rt, _, _, _ := testFederation(t)
	col := trace.NewCollector(8, 0, 1)
	rt.Telemetry.Tracer = trace.NewTracer(col)
	leaktest.Check(t, rt.Telemetry.Tracer)
	if rec := get(t, rt, "/p4p/v1/distances", nil); rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.Bytes())
	}
	snap := col.Snapshot()
	if len(snap.Traces) != 1 {
		t.Fatalf("kept %d traces, want 1", len(snap.Traces))
	}
	counts := map[string]int{}
	for _, s := range snap.Traces[0].Spans {
		counts[s.Name]++
	}
	want := map[string]int{"distances": 1, "federation_refresh": 1, "client GET /p4p/v1/distances": 2, "attempt": 2, "encode": 1}
	if !maps.Equal(counts, want) {
		t.Errorf("span names %v, want %v", counts, want)
	}
}

// TestRouterRendersOnlyFormAsked is the pin on the lazy render: after a
// shard changes, the refresh encodes nothing, and a binary request
// encodes the binary form alone. Rendering every form with the merge
// would show three encode spans, or none.
func TestRouterRendersOnlyFormAsked(t *testing.T) {
	rt, clk, fa, _ := testFederation(t)
	if rec := get(t, rt, "/p4p/v1/distances", nil); rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	va := viewA()
	va.Version = 4
	fa.setView(va)
	clk.advance(31 * time.Second)
	col := trace.NewCollector(8, 0, 1)
	rt.Telemetry.Tracer = trace.NewTracer(col)
	leaktest.Check(t, rt.Telemetry.Tracer)
	rec := get(t, rt, "/p4p/v1/distances", map[string]string{"Accept": portal.BinaryViewType})
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != portal.BinaryViewType {
		t.Fatalf("status %d, Content-Type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	snap := col.Snapshot()
	if len(snap.Traces) != 1 {
		t.Fatalf("kept %d traces, want 1", len(snap.Traces))
	}
	var forms []string
	refreshed := false
	for _, s := range snap.Traces[0].Spans {
		switch s.Name {
		case "federation_refresh":
			refreshed = true
		case "encode":
			for _, a := range s.Attrs {
				if a.Key == "form" {
					forms = append(forms, a.Value)
				}
			}
		}
	}
	if !refreshed || !slices.Equal(forms, []string{portal.FormBinary}) {
		t.Errorf("refreshed %v, encoded forms %v; want a refresh and one encode of %s", refreshed, forms, portal.FormBinary)
	}
}

func TestRouterFederationETagRevalidation(t *testing.T) {
	rt, clk, fa, _ := testFederation(t)
	rec := get(t, rt, "/p4p/v1/distances", nil)
	etag := rec.Header().Get("Etag")
	if etag == "" {
		t.Fatal("no federation ETag on 200")
	}
	body := append([]byte(nil), rec.Body.Bytes()...)

	// Within the TTL: a conditional GET revalidates without touching
	// the backends.
	rec = get(t, rt, "/p4p/v1/distances", map[string]string{"If-None-Match": etag})
	if rec.Code != http.StatusNotModified {
		t.Fatalf("status = %d, want 304", rec.Code)
	}

	// Past the TTL with unchanged backends: the refresh pass 304s
	// against each shard and republishes the identical entry — same
	// ETag, byte-identical body.
	clk.advance(31 * time.Second)
	rec = get(t, rt, "/p4p/v1/distances", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if got := rec.Header().Get("Etag"); got != etag {
		t.Errorf("ETag changed across no-op revalidation: %s -> %s", etag, got)
	}
	if !bytes.Equal(rec.Body.Bytes(), body) {
		t.Error("body changed across no-op revalidation")
	}
	if _, nmods := fa.counts(); nmods == 0 {
		t.Error("backend a saw no 304 revalidation")
	}

	// A backend version bump past the TTL recomposes: new ETag, and the
	// old validator no longer matches.
	va := viewA()
	va.Version = 4
	va.D[0][1] = 2.5
	va.D[1][0] = 2.5
	fa.setView(va)
	clk.advance(31 * time.Second)
	rec = get(t, rt, "/p4p/v1/distances", map[string]string{"If-None-Match": etag})
	if rec.Code != http.StatusOK {
		t.Fatalf("status after version bump = %d, want 200", rec.Code)
	}
	if got := rec.Header().Get("Etag"); got == etag {
		t.Error("federation ETag did not change after a shard version bump")
	}
	if v := decodeView(t, rec.Body.Bytes()); v.Distance(0, 1) != 2.5 {
		t.Errorf("merged view did not pick up the new shard matrix: d(0,1) = %v", v.Distance(0, 1))
	}
}

func TestRouterBatch(t *testing.T) {
	rt, _, _, _ := testFederation(t)
	rec := get(t, rt, "/p4p/v1/distances/batch?pairs=0-11,1-10,0-1", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.Bytes())
	}
	var out portal.BatchResponseWire
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	want := []float64{13, 7, 2}
	for i, w := range want {
		if out.Distances[i] != w {
			t.Errorf("distances[%d] = %v, want %v", i, out.Distances[i], w)
		}
	}

	// POST form.
	payload, _ := json.Marshal(portal.BatchRequestWire{Pairs: []portal.PIDPair{{Src: 11, Dst: 0}}})
	req := httptest.NewRequest(http.MethodPost, "/p4p/v1/distances/batch", bytes.NewReader(payload))
	rec2 := httptest.NewRecorder()
	rt.ServeHTTP(rec2, req)
	if rec2.Code != http.StatusOK {
		t.Fatalf("POST status = %d", rec2.Code)
	}
	if err := json.Unmarshal(rec2.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Distances[0] != 4+7+2 {
		t.Errorf("POST d(11,0) = %v, want 13", out.Distances[0])
	}

	// Unknown PID is a 400, not a panic.
	if rec := get(t, rt, "/p4p/v1/distances/batch?pairs=0-99", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("unknown PID status = %d, want 400", rec.Code)
	}
}

func TestRouterDegradesPerShard(t *testing.T) {
	rt, clk, _, fb := testFederation(t)
	// Healthy first pass.
	if rec := get(t, rt, "/p4p/v1/distances", nil); rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}

	// Shard b dies. Past the TTL the refresh fails for b only; its
	// last-known-good view keeps the federation whole.
	fb.setFail(true)
	clk.advance(31 * time.Second)
	rec := get(t, rt, "/p4p/v1/distances", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status with one dead shard = %d, want 200", rec.Code)
	}
	v := decodeView(t, rec.Body.Bytes())
	if _, ok := v.Index(10); !ok {
		t.Error("dead shard's PIDs dropped despite last-known-good view")
	}

	st := rt.Stats()
	var bStat ShardStatus
	for _, s := range st.Shards {
		if s.Name == "b" {
			bStat = s
		}
	}
	if bStat.Failures == 0 {
		t.Error("shard b shows no failures after dying")
	}
	if bStat.StaleServes == 0 {
		t.Error("shard b shows no stale serves while serving last-known-good")
	}
	if bStat.Fresh {
		t.Error("shard b still reported fresh")
	}
	if !bStat.HasView {
		t.Error("shard b lost its last-known-good view")
	}
	if st.Merged == nil || st.Merged.ShardsServing != 2 || st.Merged.ShardsFresh != 1 {
		t.Errorf("merged status = %+v, want 2 serving / 1 fresh", st.Merged)
	}

	// Degraded is still ready: one shard holding a view suffices.
	if rec := get(t, rt, "/readyz", nil); rec.Code != http.StatusOK {
		t.Errorf("readyz = %d with a last-known-good federation, want 200", rec.Code)
	}
	if ok, detail := rt.Ready(); !ok || !strings.Contains(detail, "2/2") {
		t.Errorf("Ready() = %v %q", ok, detail)
	}
	if rec := get(t, rt, "/healthz", nil); rec.Code != http.StatusOK {
		t.Errorf("healthz = %d", rec.Code)
	}
}

func TestRouterColdStartAllShardsDown(t *testing.T) {
	fa := &fakeBackend{view: viewA(), fail: true}
	sa := httptest.NewServer(fa)
	t.Cleanup(sa.Close)
	rt, err := NewRouter(Config{
		Shards: []ShardConfig{{Name: "a", BaseURL: sa.URL}},
		Client: fastClient(),
	})
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	rt.nowFn = clk.now
	if rec := get(t, rt, "/p4p/v1/distances", nil); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want 503 before any view exists", rec.Code)
	}
	if rec := get(t, rt, "/readyz", nil); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz = %d, want 503 with zero shards serving", rec.Code)
	}
	// Backend recovers: after the failure backoff the router heals.
	fa.setFail(false)
	clk.advance(6 * time.Second)
	if rec := get(t, rt, "/p4p/v1/distances", nil); rec.Code != http.StatusOK {
		t.Errorf("status after recovery = %d, want 200", rec.Code)
	}
	if rec := get(t, rt, "/readyz", nil); rec.Code != http.StatusOK {
		t.Errorf("readyz after recovery = %d, want 200", rec.Code)
	}
}

func TestRouterStatsEndpointAndMetrics(t *testing.T) {
	rt, clk, _, fb := testFederation(t)
	reg := telemetry.NewRegistry()
	rt.Metrics = NewRouterMetrics(reg)
	if rec := get(t, rt, "/p4p/v1/distances", nil); rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	fb.setFail(true)
	clk.advance(31 * time.Second)
	if rec := get(t, rt, "/p4p/v1/distances", nil); rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}

	rec := get(t, rt, "/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status = %d", rec.Code)
	}
	var st RouterStats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != 2 {
		t.Fatalf("stats shards = %d", len(st.Shards))
	}

	// The labeled families mirror the per-shard counters.
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	mrec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(mrec, req)
	expo, _ := io.ReadAll(mrec.Result().Body)
	for _, want := range []string{
		`p4p_federation_shard_refreshes_total{shard="a"}`,
		`p4p_federation_shard_failures_total{shard="b"}`,
		`p4p_federation_shard_stale_serves_total{shard="b"}`,
	} {
		if !strings.Contains(string(expo), want) {
			t.Errorf("exposition missing %s", want)
		}
	}
}

// discardWriter is a reusable ResponseWriter: header map allocated once,
// body discarded, so AllocsPerRun measures the handler.
type discardWriter struct {
	hdr    http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.hdr }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestRouterCachedDistancesAllocs is the federation-backed row of
// portal's TestCachedDistancesAllocs (which cannot import this package):
// inside the merged TTL the router's distances path is the same byte
// copy, at the 3 allocations per request it measures.
func TestRouterCachedDistancesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	rt, _, _, _ := testFederation(t)
	req := httptest.NewRequest(http.MethodGet, "/p4p/v1/distances", nil)
	rt.ServeHTTP(httptest.NewRecorder(), req) // prime the merge
	w := &discardWriter{hdr: make(http.Header, 8)}
	allocs := testing.AllocsPerRun(500, func() {
		w.status = 0
		rt.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("status %d", w.status)
		}
	})
	if allocs > 3 {
		t.Fatalf("cached federation distances path: %.1f allocs/op, want <= 3", allocs)
	}
}

// TestRouterRevalidatesEveryTTL is the regression test for the 2×TTL
// bug: the merged window used to be stamped when its refresh started
// and the shard windows when their fetches ended, so at merged expiry
// the shards still looked fresh, the merge was republished without
// contacting a backend, and real revalidation happened every second
// window. With both stamped after their fetch, once everything the
// router holds is older than the TTL the next request reaches every
// backend.
func TestRouterRevalidatesEveryTTL(t *testing.T) {
	const ttl = 30 * time.Second
	clk := newFakeClock()
	fa := &fakeBackend{view: viewA()}
	fb := &fakeBackend{view: viewB()}
	// Each backend answers in 5 ms of fake clock.
	slow := func(f *fakeBackend) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			clk.advance(5 * time.Millisecond)
			f.ServeHTTP(w, r)
		})
	}
	sa := httptest.NewServer(slow(fa))
	sb := httptest.NewServer(slow(fb))
	t.Cleanup(sa.Close)
	t.Cleanup(sb.Close)
	rt, err := NewRouter(Config{
		Shards: []ShardConfig{{Name: "a", BaseURL: sa.URL}, {Name: "b", BaseURL: sb.URL}},
		TTL:    ttl,
		Client: fastClient(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.nowFn = clk.now
	backendRequests := func() int {
		ga, na := fa.counts()
		gb, nb := fb.counts()
		return ga + na + gb + nb
	}
	start := clk.now()
	if rec := get(t, rt, "/p4p/v1/distances", nil); rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if n := backendRequests(); n != 2 {
		t.Fatalf("priming request made %d backend requests, want 2", n)
	}
	primed := clk.now() // start + 10 ms: when the last backend answered

	// TTL+1 ms after the first request began, less than a TTL after its
	// backends answered: whatever the router serves, a republish here
	// must not restart the window.
	clk.advance(start.Add(ttl + time.Millisecond).Sub(clk.now()))
	if rec := get(t, rt, "/p4p/v1/distances", nil); rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}

	// TTL+1 ms after the backends last answered: nothing the router holds
	// is inside its TTL, so this request must revalidate both backends.
	clk.advance(primed.Add(ttl + time.Millisecond).Sub(clk.now()))
	if rec := get(t, rt, "/p4p/v1/distances", nil); rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if n := backendRequests(); n != 4 {
		t.Errorf("%d backend requests a TTL after the last revalidation, want 4 (both shards revalidated again)", n)
	}
	if _, na := fa.counts(); na != 1 {
		t.Errorf("backend a answered %d 304s, want 1", na)
	}
}

// TestRouterAnsweredDuringRefresh pins GET /p4p/v1/distances against a
// lock held across a shard fetch: while one request's refresh is parked
// at shard a, a second request is answered at once from the previous
// merged view, with its ETag.
func TestRouterAnsweredDuringRefresh(t *testing.T) {
	clk := newFakeClock()
	fa := &fakeBackend{view: viewA()}
	fb := &fakeBackend{view: viewB()}
	var served, unparked atomic.Int64
	parked, release := make(chan struct{}, 1), make(chan struct{}) // parked: one pending signal, sent without blocking
	sa := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) > 1 {
			select {
			case parked <- struct{}{}:
			default:
			}
			select {
			case <-release:
			case <-r.Context().Done():
			}
			unparked.Add(1)
		}
		fa.ServeHTTP(w, r)
	}))
	sb := httptest.NewServer(fb)
	t.Cleanup(sa.Close)
	t.Cleanup(sb.Close)
	let := sync.OnceFunc(func() { close(release) })
	t.Cleanup(let) // runs before sa.Close, which waits for parked requests
	rt, err := NewRouter(Config{
		Shards:   []ShardConfig{{Name: "a", BaseURL: sa.URL}, {Name: "b", BaseURL: sb.URL}},
		Circuits: []Circuit{{A: "a", APID: 1, B: "b", BPID: 10, Cost: 7}},
		TTL:      30 * time.Second,
		Client:   fastClient(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.nowFn = clk.now
	prev := get(t, rt, "/p4p/v1/distances", nil)
	if prev.Code != http.StatusOK {
		t.Fatalf("priming status = %d", prev.Code)
	}
	clk.advance(31 * time.Second)

	first, second := make(chan int, 1), make(chan *httptest.ResponseRecorder, 1)
	go func() { first <- get(t, rt, "/p4p/v1/distances", nil).Code }()
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("the first request's refresh never reached shard a")
	}
	go func() { second <- get(t, rt, "/p4p/v1/distances", nil) }()
	select {
	case rec := <-second:
		if rec.Code != http.StatusOK || rec.Header().Get("ETag") != prev.Header().Get("ETag") || !bytes.Equal(rec.Body.Bytes(), prev.Body.Bytes()) {
			t.Errorf("second request: status %d, ETag %q; want 200 with the previous view under %q",
				rec.Code, rec.Header().Get("ETag"), prev.Header().Get("ETag"))
		}
		if n := unparked.Load(); n != 0 {
			t.Errorf("second request answered only after %d parked fetch(es) gave up", n)
		}
	case <-time.After(5 * time.Second):
		t.Error("second request still blocked 5s into the first one's parked refresh")
	}
	let()
	if code := <-first; code != http.StatusOK {
		t.Errorf("refreshing request status = %d, want 200", code)
	}
}

// errorCounter is a slog handler counting Error records and keeping
// the "error" attribute of the last one.
type errorCounter struct {
	n    atomic.Int64
	last atomic.Value // string
}

func (h *errorCounter) Enabled(context.Context, slog.Level) bool { return true }
func (h *errorCounter) Handle(_ context.Context, r slog.Record) error {
	if r.Level >= slog.LevelError {
		h.n.Add(1)
		r.Attrs(func(a slog.Attr) bool {
			if a.Key == "error" {
				h.last.Store(a.Value.String())
			}
			return true
		})
	}
	return nil
}
func (h *errorCounter) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *errorCounter) WithGroup(string) slog.Handler      { return h }

// TestRouterMergeFailureBacksOff is the regression test for the
// unthrottled merge failure: a shard that starts serving another
// shard's PIDs makes Merge fail, and that used to re-run Merge (and log
// an Error line) on every request. A failed merge is a failed refresh
// like any other: last-known-good keeps serving and the merge is
// retried once per failure backoff. It is also what stands between a
// misconfigured shard and appTrackers: the logged error names the PID
// and both shards, and the previous merge keeps its body and its ETag.
func TestRouterMergeFailureBacksOff(t *testing.T) {
	rt, clk, _, fb := testFederation(t)
	errs := &errorCounter{}
	rt.Telemetry.Logger = slog.New(errs)
	rec := get(t, rt, "/p4p/v1/distances", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	etag, body := rec.Header().Get("Etag"), rec.Body.String()

	// Shard b is repointed at shard a's PID space.
	overlap := viewA()
	overlap.Version = 9
	fb.setView(overlap)
	clk.advance(31 * time.Second)
	for i := 0; i < 5; i++ {
		rec := get(t, rt, "/p4p/v1/distances", nil)
		if rec.Code != http.StatusOK || rec.Header().Get("Etag") != etag || rec.Body.String() != body {
			t.Fatalf("request %d: status %d etag %s, want the previous merge (200, %s, same body)",
				i, rec.Code, rec.Header().Get("Etag"), etag)
		}
	}
	if rec := get(t, rt, "/p4p/v1/distances", map[string]string{"If-None-Match": etag}); rec.Code != http.StatusNotModified {
		t.Errorf("revalidating the previous merge's ETag: status %d, want 304", rec.Code)
	}
	if m := rt.Stats().Merged; m == nil || m.ETag != etag {
		t.Errorf("/stats merged = %+v, want the previous merge's ETag %s", m, etag)
	}
	if n := errs.n.Load(); n != 1 {
		t.Errorf("%d merge failures logged across 5 requests inside one backoff window, want 1", n)
	}
	if msg, _ := errs.last.Load().(string); !strings.Contains(msg, `PID 0 served by both shard "a" and shard "b"`) {
		t.Errorf("logged merge error %q, want it to name PID 0 and shards a and b", msg)
	}
	clk.advance(6 * time.Second) // past the 5 s default failure backoff
	if rec := get(t, rt, "/p4p/v1/distances", nil); rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if n := errs.n.Load(); n != 2 {
		t.Errorf("%d merge failures logged after the backoff expired, want 2", n)
	}
}

func TestNewRouterValidation(t *testing.T) {
	cases := []Config{
		{}, // no shards
		{Shards: []ShardConfig{{Name: "", BaseURL: "http://x"}}},
		{Shards: []ShardConfig{{Name: "a", BaseURL: ""}}},
		{Shards: []ShardConfig{{Name: "a", BaseURL: "http://x"}, {Name: "a", BaseURL: "http://y"}}},
		{
			Shards:   []ShardConfig{{Name: "a", BaseURL: "http://x"}},
			Circuits: []Circuit{{A: "a", APID: 0, B: "ghost", BPID: 1, Cost: 1}},
		},
		{
			Shards:   []ShardConfig{{Name: "a", BaseURL: "http://x"}, {Name: "b", BaseURL: "http://y"}},
			Circuits: []Circuit{{A: "a", APID: 0, B: "b", BPID: 1, Cost: -2}},
		},
		{
			Shards:   []ShardConfig{{Name: "a", BaseURL: "http://x"}, {Name: "b", BaseURL: "http://y"}},
			Circuits: []Circuit{{A: "a", APID: 0, B: "b", BPID: 1, Cost: math.NaN()}},
		},
	}
	for i, cfg := range cases {
		if _, err := NewRouter(cfg); err == nil {
			t.Errorf("case %d: want configuration error", i)
		}
	}
}
