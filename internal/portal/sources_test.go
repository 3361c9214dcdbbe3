package portal_test

import (
	"bytes"
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"p4p/internal/core"
	"p4p/internal/federation"
	"p4p/internal/itracker"
	"p4p/internal/portal"
	"p4p/internal/topology"
	"p4p/internal/trace"
)

// This file runs the serving kernel over both of its sources. It lives
// in the external test package because the federation-backed source is
// declared in a package that imports this one.

const trustToken = "tok"

// newTrackerHandler is the portal handler over an Abilene iTracker.
func newTrackerHandler(t testing.TB, tokens ...string) *portal.Handler {
	t.Helper()
	g := topology.Abilene()
	e := core.NewEngine(g, topology.ComputeRouting(g), core.Config{})
	tr := itracker.New(itracker.Config{Name: "t", ASN: 1, TrustedTokens: tokens}, e, itracker.SyntheticPIDMap(g))
	return portal.NewHandler(tr)
}

// newFederationHandler is the same handler over a merged source: a
// router whose one shard is an open Abilene portal behind a real socket.
func newFederationHandler(t testing.TB, tokens ...string) http.Handler {
	t.Helper()
	backend := httptest.NewServer(newTrackerHandler(t))
	t.Cleanup(backend.Close)
	rt, err := federation.NewRouter(federation.Config{
		Shards:        []federation.ShardConfig{{Name: "abilene", BaseURL: backend.URL}},
		TrustedTokens: tokens,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func serve(h http.Handler, method, target, body string, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, strings.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestHandlerOverBothSources drives every behaviour the handler owns —
// forms, conditional GET, the 403 the source reports, both batch wire
// forms, the batch limits, Content-Length — through the iTracker-backed
// and the federation-backed source, and requires the same answers.
func TestHandlerOverBothSources(t *testing.T) {
	overLimit, err := json.Marshal(portal.BatchRequestWire{Pairs: make([]portal.PIDPair, 65536+1)})
	if err != nil {
		t.Fatal(err)
	}
	auth := map[string]string{"X-P4P-Token": trustToken}
	cases := []struct {
		name, method, target, body string
		hdr                        map[string]string
		want                       int
		wantErr                    string // substring of the error envelope
	}{
		{name: "raw", method: "GET", target: "/p4p/v1/distances", hdr: auth, want: 200},
		{name: "ranks", method: "GET", target: "/p4p/v1/distances?form=ranks", hdr: auth, want: 200},
		{name: "bad form", method: "GET", target: "/p4p/v1/distances?form=xml", hdr: auth, want: 400, wantErr: "unknown form"},
		{name: "no token", method: "GET", target: "/p4p/v1/distances", want: 403, wantErr: "access denied"},
		{name: "wrong token batch", method: "GET", target: "/p4p/v1/distances/batch?pairs=0-1",
			hdr: map[string]string{"X-P4P-Token": "nope"}, want: 403, wantErr: "access denied"},
		{name: "batch GET", method: "GET", target: "/p4p/v1/distances/batch?pairs=0-1,1-2,2-0", hdr: auth, want: 200},
		{name: "batch POST", method: "POST", target: "/p4p/v1/distances/batch",
			body: `{"pairs":[{"src":0,"dst":1},{"src":3,"dst":7}]}`, hdr: auth, want: 200},
		{name: "missing pairs", method: "GET", target: "/p4p/v1/distances/batch", hdr: auth, want: 400, wantErr: "missing pairs"},
		{name: "malformed pair", method: "GET", target: "/p4p/v1/distances/batch?pairs=0_1", hdr: auth, want: 400, wantErr: "malformed pair"},
		{name: "empty POST pairs", method: "POST", target: "/p4p/v1/distances/batch", body: `{"pairs":[]}`, hdr: auth, want: 400, wantErr: "empty pairs"},
		{name: "bad JSON body", method: "POST", target: "/p4p/v1/distances/batch", body: `{"pairs":`, hdr: auth, want: 400, wantErr: "decode request body"},
		{name: "over-limit pairs", method: "POST", target: "/p4p/v1/distances/batch", body: string(overLimit), hdr: auth, want: 400, wantErr: "batch limit"},
		{name: "unknown PID", method: "GET", target: "/p4p/v1/distances/batch?pairs=0-9999", hdr: auth, want: 400, wantErr: "PID 9999 not in the external view"},
		{name: "malformed ip", method: "GET", target: "/p4p/v1/pid?ip=banana", hdr: auth, want: 400, wantErr: "malformed ip"},
		{name: "pid lookup", method: "GET", target: "/p4p/v1/pid?ip=10.3.0.7", hdr: auth, want: 200},
	}
	sources := []struct {
		name string
		h    http.Handler
	}{
		{"itracker", newTrackerHandler(t, trustToken)},
		{"federation", newFederationHandler(t, trustToken)},
	}
	bodies := map[string][]byte{} // case name → the iTracker-backed 200 body
	for _, src := range sources {
		for _, tc := range cases {
			t.Run(src.name+"/"+tc.name, func(t *testing.T) {
				rec := serve(src.h, tc.method, tc.target, tc.body, tc.hdr)
				if rec.Code != tc.want {
					t.Fatalf("status %d, want %d; body %s", rec.Code, tc.want, rec.Body.Bytes())
				}
				if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
					t.Errorf("Content-Type %q", ct)
				}
				if n, err := strconv.Atoi(rec.Header().Get("Content-Length")); err != nil || n != rec.Body.Len() {
					t.Errorf("Content-Length %q, body %d bytes", rec.Header().Get("Content-Length"), rec.Body.Len())
				}
				if tc.want != http.StatusOK {
					var env struct{ Error string }
					if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || !strings.Contains(env.Error, tc.wantErr) {
						t.Errorf("error envelope %s, want one containing %q", rec.Body.Bytes(), tc.wantErr)
					}
					return
				}
				// A one-shard federation without circuits is the shard:
				// distances and batch answers match the iTracker-backed
				// ones byte for byte.
				if prev, ok := bodies[tc.name]; !ok {
					bodies[tc.name] = append([]byte(nil), rec.Body.Bytes()...)
				} else if !bytes.Equal(prev, rec.Body.Bytes()) {
					t.Errorf("federation-backed body differs from the iTracker-backed one:\n%s\n%s", rec.Body.Bytes(), prev)
				}
			})
		}
		t.Run(src.name+"/conditional GET", func(t *testing.T) {
			first := serve(src.h, "GET", "/p4p/v1/distances", "", auth)
			etag := first.Header().Get("Etag")
			if first.Code != http.StatusOK || etag == "" {
				t.Fatalf("status %d, ETag %q", first.Code, etag)
			}
			for _, inm := range []string{etag, "*", `"bogus", ` + etag, "W/" + etag} {
				hdr := map[string]string{"X-P4P-Token": trustToken, "If-None-Match": inm}
				rec := serve(src.h, "GET", "/p4p/v1/distances", "", hdr)
				if rec.Code != http.StatusNotModified || rec.Body.Len() != 0 || rec.Header().Get("Etag") != etag {
					t.Errorf("If-None-Match %s: status %d, %d body bytes, ETag %q; want a bare 304 carrying %s",
						inm, rec.Code, rec.Body.Len(), rec.Header().Get("Etag"), etag)
				}
			}
			// Validators are per form and per process.
			for _, stale := range []string{`"v999-raw"`, strings.Replace(etag, "raw", "ranks", 1)} {
				hdr := map[string]string{"X-P4P-Token": trustToken, "If-None-Match": stale}
				if rec := serve(src.h, "GET", "/p4p/v1/distances", "", hdr); rec.Code != http.StatusOK {
					t.Errorf("If-None-Match %s: status %d, want 200", stale, rec.Code)
				}
			}
			ranks := serve(src.h, "GET", "/p4p/v1/distances?form=ranks", "", auth)
			if got := ranks.Header().Get("Etag"); got != strings.Replace(etag, "raw", "ranks", 1) {
				t.Errorf("ranks ETag %s, raw ETag %s: want the same validator with the form swapped", got, etag)
			}
		})
	}
	// Policy and capabilities are per-provider: only the iTracker-backed
	// handler registers them.
	for _, path := range []string{"/p4p/v1/policy", "/p4p/v1/capabilities"} {
		if rec := serve(sources[0].h, "GET", path, "", auth); rec.Code != http.StatusOK {
			t.Errorf("itracker %s: status %d, want 200", path, rec.Code)
		}
		if rec := serve(sources[1].h, "GET", path, "", auth); rec.Code != http.StatusNotFound {
			t.Errorf("federation %s: status %d, want 404", path, rec.Code)
		}
	}
}

// TestNegotiationOverBothSources pins the Accept rule on the distances
// route for both sources: only a request that lists BinaryViewType
// (and does not refuse it with q=0) gets the binary rendering; a request
// without Accept — every client written before the binary form existed —
// gets the JSON bytes json.Marshal(ToWire(view)) always produced, under
// an ETag of the old format. Per encoding, ETag, body, Content-Length
// and Content-Type agree, and a validator only revalidates its own.
func TestNegotiationOverBothSources(t *testing.T) {
	const bin, jsonCT = portal.BinaryViewType, "application/json"
	cases := []struct{ name, accept, wantCT string }{
		{"absent", "", jsonCT},
		{"any", "*/*", jsonCT},
		{"json", jsonCT, jsonCT},
		{"binary", bin, bin},
		{"both", jsonCT + ", " + bin, bin},
		{"what portal.Client sends", bin + ", " + jsonCT, bin},
		{"binary with parameters", "text/html;q=0.2, " + strings.ToUpper(bin) + " ;v=1; q=0.5", bin},
		{"binary refused", bin + ";q=0, " + jsonCT, jsonCT},
		{"binary refused, long form", jsonCT + ", " + bin + "; q=0.000", jsonCT},
		{"a longer type name", bin + "-next", jsonCT},
	}
	sources := []struct {
		name string
		h    http.Handler
		etag string // unquoted validator without its form suffix
	}{
		{"itracker", newTrackerHandler(t), `[0-9a-f]{8}-v\d+`},
		{"federation", newFederationHandler(t), `fed-[0-9a-f]{8}-[0-9a-f]{16}`},
	}
	for _, src := range sources {
		ref := serve(src.h, "GET", "/p4p/v1/distances", "", nil)
		var w portal.ViewWire
		if err := json.Unmarshal(ref.Body.Bytes(), &w); err != nil {
			t.Fatal(err)
		}
		view, err := portal.FromWire(&w)
		if err != nil {
			t.Fatal(err)
		}
		old, err := json.Marshal(portal.ToWire(view))
		if err != nil {
			t.Fatal(err)
		}
		wantBin, err := portal.EncodeView(view, portal.FormBinary)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]struct {
			body []byte
			etag *regexp.Regexp
		}{
			jsonCT: {append(old, '\n'), regexp.MustCompile(`^"` + src.etag + `-raw"$`)},
			bin:    {wantBin, regexp.MustCompile(`^"` + src.etag + `-bin"$`)},
		}
		etags := map[string]string{}
		for _, tc := range cases {
			t.Run(src.name+"/"+tc.name, func(t *testing.T) {
				hdr := map[string]string{}
				if tc.accept != "" {
					hdr["Accept"] = tc.accept
				}
				rec := serve(src.h, "GET", "/p4p/v1/distances", "", hdr)
				etag := rec.Header().Get("Etag")
				if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != tc.wantCT || rec.Header().Get("Vary") != "Accept" {
					t.Fatalf("status %d, Content-Type %q, Vary %q; want 200, %s, Accept",
						rec.Code, rec.Header().Get("Content-Type"), rec.Header().Get("Vary"), tc.wantCT)
				}
				if !bytes.Equal(rec.Body.Bytes(), want[tc.wantCT].body) {
					t.Errorf("%d body bytes differ from the expected %d-byte rendering", rec.Body.Len(), len(want[tc.wantCT].body))
				}
				if rec.Header().Get("Content-Length") != strconv.Itoa(rec.Body.Len()) || !want[tc.wantCT].etag.MatchString(etag) {
					t.Errorf("Content-Length %q for %d bytes, ETag %s", rec.Header().Get("Content-Length"), rec.Body.Len(), etag)
				}
				if prev, ok := etags[tc.wantCT]; ok && prev != etag {
					t.Errorf("ETag %s, earlier %s response carried %s", etag, tc.wantCT, prev)
				}
				etags[tc.wantCT] = etag
				// Its own validator revalidates; the 304 still says the
				// answer depends on Accept.
				hdr["If-None-Match"] = etag
				if rec := serve(src.h, "GET", "/p4p/v1/distances", "", hdr); rec.Code != http.StatusNotModified ||
					rec.Body.Len() != 0 || rec.Header().Get("Etag") != etag || rec.Header().Get("Vary") != "Accept" {
					t.Errorf("own ETag: status %d, %d body bytes, ETag %q, Vary %q; want a bare 304",
						rec.Code, rec.Body.Len(), rec.Header().Get("Etag"), rec.Header().Get("Vary"))
				}
			})
		}
		t.Run(src.name+"/validators are per encoding", func(t *testing.T) {
			for _, x := range []struct{ accept, inm string }{{bin, etags[jsonCT]}, {jsonCT, etags[bin]}, {"", etags[bin]}} {
				hdr := map[string]string{"Accept": x.accept, "If-None-Match": x.inm}
				if rec := serve(src.h, "GET", "/p4p/v1/distances", "", hdr); rec.Code != http.StatusOK {
					t.Errorf("Accept %q with If-None-Match %s: status %d, want 200", x.accept, x.inm, rec.Code)
				}
			}
		})
		t.Run(src.name+"/ranks and errors stay JSON", func(t *testing.T) {
			plain := serve(src.h, "GET", "/p4p/v1/distances?form=ranks", "", nil)
			asked := serve(src.h, "GET", "/p4p/v1/distances?form=ranks", "", map[string]string{"Accept": bin})
			if asked.Code != http.StatusOK || asked.Header().Get("Content-Type") != jsonCT ||
				asked.Header().Get("Etag") != plain.Header().Get("Etag") || !bytes.Equal(asked.Body.Bytes(), plain.Body.Bytes()) {
				t.Errorf("ranks with Accept: status %d, Content-Type %q, ETag %s (plain %s)",
					asked.Code, asked.Header().Get("Content-Type"), asked.Header().Get("Etag"), plain.Header().Get("Etag"))
			}
			for _, target := range []string{"/p4p/v1/distances?form=xml", "/p4p/v1/distances?form=" + portal.FormBinary} {
				rec := serve(src.h, "GET", target, "", map[string]string{"Accept": bin})
				if rec.Code != http.StatusBadRequest || rec.Header().Get("Content-Type") != jsonCT {
					t.Errorf("%s: status %d, Content-Type %q; want a 400 JSON envelope", target, rec.Code, rec.Header().Get("Content-Type"))
				}
			}
		})
	}
}

// liveSource is one ViewSource behind its handler, with a tracer on its
// middleware and a way to move its view: bump runs a price update on the
// iTracker that answers for it.
type liveSource struct {
	name string
	h    http.Handler
	col  *trace.Collector
	bump func()
}

// liveSources builds both sources over open Abilene iTrackers. The
// router's TTL is a nanosecond, so every request revalidates its shard
// and sees a bump at once; the merge key moves only when the shard's
// ETag does.
func liveSources(t *testing.T) []liveSource {
	t.Helper()
	g := topology.Abilene()
	tracker := func() (*portal.Handler, func()) {
		e := core.NewEngine(g, topology.ComputeRouting(g), core.Config{})
		tr := itracker.New(itracker.Config{Name: "t", ASN: 1}, e, itracker.SyntheticPIDMap(g))
		return portal.NewHandler(tr), func() { tr.ObserveAndUpdate(make([]float64, g.NumLinks())) }
	}
	h, bump := tracker()
	col := trace.NewCollector(4096, 0, 1)
	h.Telemetry.Tracer = trace.NewTracer(col)
	sources := []liveSource{{"itracker", h, col, bump}}

	backend, bump := tracker()
	srv := httptest.NewServer(backend)
	t.Cleanup(srv.Close)
	rt, err := federation.NewRouter(federation.Config{
		Shards: []federation.ShardConfig{{Name: "abilene", BaseURL: srv.URL}},
		TTL:    time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	col = trace.NewCollector(4096, 0, 1)
	rt.Telemetry.Tracer = trace.NewTracer(col)
	return append(sources, liveSource{"federation", rt, col, bump})
}

// encodes counts the renders the source's kept traces record, by form.
func (s liveSource) encodes() map[string]int {
	n := map[string]int{}
	for _, kept := range s.col.Snapshot().Traces {
		for _, sp := range kept.Spans {
			if sp.Name != "encode" {
				continue
			}
			for _, a := range sp.Attrs {
				if a.Key == "form" {
					n[a.Value]++
				}
			}
		}
	}
	return n
}

// TestEntryCacheRendersOncePerKey checks the cache contract through both
// sources: a form is rendered once per view and served as the same
// bytes after that, forms are rendered independently and only when
// asked for, and a moved view renders again under a new ETag.
func TestEntryCacheRendersOncePerKey(t *testing.T) {
	for _, src := range liveSources(t) {
		t.Run(src.name, func(t *testing.T) {
			first := serve(src.h, "GET", "/p4p/v1/distances", "", nil)
			again := serve(src.h, "GET", "/p4p/v1/distances", "", nil)
			if first.Code != http.StatusOK || again.Header().Get("Etag") != first.Header().Get("Etag") ||
				!bytes.Equal(again.Body.Bytes(), first.Body.Bytes()) {
				t.Fatalf("repeat request: status %d, ETag %s then %s", first.Code, first.Header().Get("Etag"), again.Header().Get("Etag"))
			}
			if got := src.encodes(); !maps.Equal(got, map[string]int{"raw": 1}) {
				t.Fatalf("renders %v after two raw requests, want raw once", got)
			}
			serve(src.h, "GET", "/p4p/v1/distances?form=ranks", "", nil)
			if got := src.encodes(); !maps.Equal(got, map[string]int{"raw": 1, "ranks": 1}) {
				t.Fatalf("renders %v after a ranks request, want raw and ranks once", got)
			}
			src.bump()
			moved := serve(src.h, "GET", "/p4p/v1/distances", "", nil)
			if moved.Code != http.StatusOK || moved.Header().Get("Etag") == first.Header().Get("Etag") {
				t.Fatalf("after a price update: status %d, ETag %s unchanged", moved.Code, moved.Header().Get("Etag"))
			}
			if got := src.encodes(); !maps.Equal(got, map[string]int{"raw": 2, "ranks": 1}) {
				t.Fatalf("renders %v after a price update, want raw twice and ranks once", got)
			}
		})
	}
}

// TestEntryCacheSingleflight races many requests at a moved view through
// both sources: the form is rendered once per move, and every request
// gets the same bytes.
func TestEntryCacheSingleflight(t *testing.T) {
	const rounds, workers = 5, 32
	for _, src := range liveSources(t) {
		t.Run(src.name, func(t *testing.T) {
			for r := 0; r < rounds; r++ {
				src.bump()
				// The router publishes the new merge on this request,
				// which renders nothing.
				serve(src.h, "GET", "/p4p/v1/distances/batch?pairs=0-1", "", nil)
				var wg sync.WaitGroup
				start := make(chan struct{})
				recs := make([]*httptest.ResponseRecorder, workers)
				for w := range recs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						recs[w] = serve(src.h, "GET", "/p4p/v1/distances", "", nil)
					}()
				}
				close(start)
				wg.Wait()
				for _, rec := range recs {
					if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), recs[0].Body.Bytes()) {
						t.Fatalf("round %d: status %d, or concurrent requests got different bodies", r, rec.Code)
					}
				}
			}
			if got := src.encodes()["raw"]; got != rounds {
				t.Fatalf("raw rendered %d times, want %d (one per price update)", got, rounds)
			}
		})
	}
}

// TestEntryCacheBodyMatchesETag serves both sources while prices move:
// an ETag always names one body. A torn entry (new ETag, old body) would
// make clients cache a wrong validator and never refetch. On the
// iTracker, TestCachedDistancesConsistency also checks the ETag's
// version against the body's.
func TestEntryCacheBodyMatchesETag(t *testing.T) {
	for _, src := range liveSources(t) {
		t.Run(src.name, func(t *testing.T) {
			var mu sync.Mutex
			bodies := map[string][]byte{}
			var wg sync.WaitGroup
			stop := make(chan struct{})
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range 100 {
					src.bump()
				}
				close(stop)
			}()
			for range 4 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						rec := serve(src.h, "GET", "/p4p/v1/distances", "", nil)
						etag := rec.Header().Get("Etag")
						if rec.Code != http.StatusOK {
							t.Errorf("status %d", rec.Code)
							return
						}
						mu.Lock()
						prev, seen := bodies[etag]
						if !seen {
							bodies[etag] = rec.Body.Bytes()
						}
						mu.Unlock()
						if seen && !bytes.Equal(prev, rec.Body.Bytes()) {
							t.Errorf("ETag %s served two different bodies", etag)
							return
						}
						select {
						case <-stop:
							return
						default:
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
