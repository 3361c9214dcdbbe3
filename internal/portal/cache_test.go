package portal

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"p4p/internal/core"
	"p4p/internal/itracker"
	"p4p/internal/telemetry"
	"p4p/internal/topology"
)

// TestContentLengthSet is the regression test for chunked cached
// responses: both the buffered writeJSON path and the cached-bytes
// distances path must carry a Content-Length matching the body.
func TestContentLengthSet(t *testing.T) {
	srv, _ := newTestPortal(t, itracker.Config{Name: "t", ASN: 1})
	for _, path := range []string{"/p4p/v1/policy", "/p4p/v1/distances", "/p4p/v1/distances", "/p4p/v1/capabilities"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		cl := resp.Header.Get("Content-Length")
		if cl == "" {
			t.Fatalf("%s: no Content-Length (chunked response)", path)
		}
		if n, _ := strconv.Atoi(cl); n != len(body) {
			t.Fatalf("%s: Content-Length %s, body %d bytes", path, cl, len(body))
		}
	}
}

// TestBootNonceETagPerProcess is the regression test for cross-restart
// ETag collisions: two portal processes at the same engine version must
// not validate each other's ETags, because their matrices can differ
// while the version counters match.
func TestBootNonceETagPerProcess(t *testing.T) {
	newHandler := func() *Handler {
		g := topology.Abilene()
		r := topology.ComputeRouting(g)
		e := core.NewEngine(g, r, core.Config{})
		return NewHandler(itracker.New(itracker.Config{Name: "t", ASN: 1}, e, nil))
	}
	h1, h2 := newHandler(), newHandler()

	get := func(h *Handler, inm string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, "/p4p/v1/distances", nil)
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	etag1 := get(h1, "").Header().Get("ETag")
	if etag1 == "" {
		t.Fatal("no ETag on distances response")
	}
	// Same process, same version: revalidates.
	if rec := get(h1, etag1); rec.Code != http.StatusNotModified {
		t.Fatalf("same-process revalidation: status %d, want 304", rec.Code)
	}
	// Different process at the same engine version: must re-send.
	if rec := get(h2, etag1); rec.Code != http.StatusOK {
		t.Fatalf("cross-process revalidation: status %d, want 200 (boot nonce missing from ETag?)", rec.Code)
	}
	if etag2 := get(h2, "").Header().Get("ETag"); etag2 == etag1 {
		t.Fatalf("two processes minted the same ETag %q", etag1)
	}
}

// TestClientDropsCacheWhenETagWithdrawn is the regression test for the
// client staleness bug: a 200 without an ETag used to leave the old
// cache entry (old view + old validator) in place, so later requests
// kept revalidating against a dead ETag — and a spurious match would
// serve the stale matrix forever. Any 200 must replace or drop the
// entry.
func TestClientDropsCacheWhenETagWithdrawn(t *testing.T) {
	view := func(version int) []byte {
		b, _ := json.Marshal(ViewWire{PIDs: []topology.PID{0, 1}, Matrix: [][]float64{{0, float64(version)}, {float64(version), 0}}, Version: version})
		return b
	}
	var mu sync.Mutex
	var inmSeen []string
	step := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inm := r.Header.Get("If-None-Match")
		mu.Lock()
		inmSeen = append(inmSeen, inm)
		step++
		s := step
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		switch s {
		case 1:
			w.Header().Set("ETag", `"A"`)
			w.Write(view(1))
		case 2:
			// Validator withdrawn: 200 with a newer view, no ETag.
			w.Write(view(2))
		default:
			w.Header().Set("ETag", `"B"`)
			w.Write(view(3))
		}
	}))
	defer srv.Close()

	c := NewClient(srv.URL, "")
	for i, wantVer := range []int{1, 2, 3} {
		v, err := c.DistancesContext(context.Background())
		if err != nil {
			t.Fatalf("fetch %d: %v", i+1, err)
		}
		if v.Version != wantVer {
			t.Fatalf("fetch %d: version %d, want %d (stale cache served?)", i+1, v.Version, wantVer)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if inmSeen[0] != "" {
		t.Fatalf("first request sent If-None-Match %q", inmSeen[0])
	}
	if inmSeen[1] != `"A"` {
		t.Fatalf("second request sent If-None-Match %q, want %q", inmSeen[1], `"A"`)
	}
	if inmSeen[2] != "" {
		t.Fatalf("third request sent If-None-Match %q after the validator was withdrawn", inmSeen[2])
	}
}

// TestEncodedCacheMetrics checks the hit/miss counters: first request
// per (version, form) misses, repeats hit, version bumps miss again.
func TestEncodedCacheMetrics(t *testing.T) {
	h, tr := newBenchPortal(t)
	get := func() {
		req := httptest.NewRequest(http.MethodGet, "/p4p/v1/distances", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
	}
	get()
	get()
	get()
	if hits, misses := h.CacheMetrics.Hits.Value(), h.CacheMetrics.Misses.Value(); hits != 2 || misses != 1 {
		t.Fatalf("hits=%v misses=%v, want 2/1", hits, misses)
	}
	tr.ObserveAndUpdate(make([]float64, tr.Engine().Graph().NumLinks()))
	get()
	if hits, misses := h.CacheMetrics.Hits.Value(), h.CacheMetrics.Misses.Value(); hits != 2 || misses != 2 {
		t.Fatalf("after bump: hits=%v misses=%v, want 2/2", hits, misses)
	}
}

// etagVersion extracts the engine version from a portal ETag
// ("nonce-vN-form", quoted).
func etagVersion(t *testing.T, etag string) int {
	t.Helper()
	s, err := strconv.Unquote(etag)
	if err != nil {
		t.Fatalf("unquote ETag %q: %v", etag, err)
	}
	i := strings.Index(s, "-v")
	if i < 0 {
		t.Fatalf("no version in ETag %q", etag)
	}
	rest := s[i+2:]
	j := strings.IndexByte(rest, '-')
	if j < 0 {
		t.Fatalf("no form suffix in ETag %q", etag)
	}
	n, err := strconv.Atoi(rest[:j])
	if err != nil {
		t.Fatalf("version in ETag %q: %v", etag, err)
	}
	return n
}

// TestCachedDistancesConsistency hammers the cached serving path while
// prices update concurrently. Every 200 must be internally consistent:
// the body's version matches the ETag's version and Content-Length
// matches the body — a torn read (new ETag, old body) would make
// clients cache a wrong validator and never refetch. Run with -race.
func TestCachedDistancesConsistency(t *testing.T) {
	h, tr := newBenchPortal(t)
	loads := make([]float64, tr.Engine().Graph().NumLinks())
	loads[0] = 3e9

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			tr.ObserveAndUpdate(loads)
		}
		close(stop)
	}()
	for w := 0; w < 8; w++ {
		wg.Add(1)
		form := "raw"
		if w%2 == 1 {
			form = "ranks"
		}
		go func(form string) {
			defer wg.Done()
			url := "/p4p/v1/distances"
			if form != "raw" {
				url += "?form=" + form
			}
			for {
				req := httptest.NewRequest(http.MethodGet, url, nil)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("status %d", rec.Code)
					return
				}
				body := rec.Body.Bytes()
				if cl, _ := strconv.Atoi(rec.Header().Get("Content-Length")); cl != len(body) {
					t.Errorf("Content-Length %d, body %d bytes", cl, len(body))
					return
				}
				var w ViewWire
				if err := json.Unmarshal(body, &w); err != nil {
					t.Errorf("body not valid JSON: %v", err)
					return
				}
				if ev := etagVersion(t, rec.Header().Get("ETag")); ev != w.Version {
					t.Errorf("ETag version %d, body version %d (torn cache entry)", ev, w.Version)
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}(form)
	}
	wg.Wait()
	if t.Failed() {
		t.Fatal(fmt.Errorf("cached serving path returned inconsistent responses under concurrent updates"))
	}
}

// TestCachedDistancesAllocs pins the acceptance bar for the tentpole:
// the steady-state distances path must stay at or under 5 allocations
// per request (the seed path spent 41 on json.Marshal alone), and the
// Accept negotiation adds none: a binary response costs what a JSON one
// does.
func TestCachedDistancesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	h, _ := newBenchPortal(t)
	var perEncoding []float64
	for _, accept := range []string{"", BinaryViewType} {
		req := httptest.NewRequest(http.MethodGet, "/p4p/v1/distances", nil)
		wantCT := jsonCTVals
		if accept != "" {
			req.Header.Set("Accept", accept)
			wantCT = binaryCTVals
		}
		h.ServeHTTP(httptest.NewRecorder(), req) // prime the caches
		w := newBenchWriter()
		allocs := testing.AllocsPerRun(500, func() {
			w.reset()
			h.ServeHTTP(w, req)
			if w.status != http.StatusOK || w.hdr.Get("Content-Type") != wantCT[0] {
				t.Fatalf("Accept %q: status %d, Content-Type %q", accept, w.status, w.hdr.Get("Content-Type"))
			}
		})
		if allocs > 5 {
			t.Fatalf("cached distances path, Accept %q: %.1f allocs/op, want <= 5", accept, allocs)
		}
		perEncoding = append(perEncoding, allocs)
	}
	if perEncoding[1] > perEncoding[0] {
		t.Fatalf("binary responses cost %.1f allocs/op, JSON %.1f", perEncoding[1], perEncoding[0])
	}
}

// TestTracedUnsampledDistancesAllocs pins the tracing acceptance bar:
// with the tracing middleware installed, an unsampled request through
// the cached distances path costs no more than the untraced budget of
// TestCachedDistancesAllocs — whether unsampled because head sampling
// is off (no inbound header) or because the caller said so (inbound
// traceparent with the sampled flag clear, which must be honored).
func TestTracedUnsampledDistancesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	h, _ := newBenchPortal(t) // tracer installed, SampleRate 0
	collector := h.Telemetry.Tracer.Collector

	cases := []struct {
		name        string
		traceparent string
	}{
		{"head_sampling_off", ""},
		{"inbound_unsampled", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodGet, "/p4p/v1/distances", nil)
			if tc.traceparent != "" {
				req.Header.Set("Traceparent", tc.traceparent)
			}
			h.ServeHTTP(httptest.NewRecorder(), req) // prime the caches
			w := newBenchWriter()
			allocs := testing.AllocsPerRun(500, func() {
				w.reset()
				h.ServeHTTP(w, req)
				if w.status != http.StatusOK {
					t.Fatalf("status %d", w.status)
				}
			})
			if allocs > 5 {
				t.Fatalf("traced unsampled distances path: %.1f allocs/op, want <= 5", allocs)
			}
		})
	}
	if kept := collector.Snapshot().Kept; kept != 0 {
		t.Fatalf("unsampled requests recorded %d traces", kept)
	}

	// Control: a sampled inbound request with the same tracer does
	// record, proving the zero-alloc runs above exercised live tracing
	// middleware rather than a disabled one.
	req := httptest.NewRequest(http.MethodGet, "/p4p/v1/distances", nil)
	req.Header.Set("Traceparent", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	h.ServeHTTP(httptest.NewRecorder(), req)
	if kept := collector.Snapshot().Kept; kept != 1 {
		t.Fatalf("sampled request recorded %d traces, want 1", kept)
	}
}

// TestCacheMetricsRegistered checks the new families land in /metrics
// via the shared registry.
func TestCacheMetricsRegistered(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewCacheMetrics(reg)
	m.hit()
	m.miss()
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"p4p_portal_encoded_cache_hits_total 1", "p4p_portal_encoded_cache_misses_total 1"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics output missing %q:\n%s", want, body)
		}
	}
}
