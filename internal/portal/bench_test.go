package portal

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"p4p/internal/core"
	"p4p/internal/itracker"
	"p4p/internal/telemetry"
	"p4p/internal/topology"
	"p4p/internal/trace"
)

// newBenchPortal builds a fully instrumented handler so the benchmarks
// measure the serving path with telemetry attached — the configuration
// the binaries actually run (minus the slog logger, whose per-line cost
// would swamp the handler).
func newBenchPortal(b testing.TB) (*Handler, *itracker.Server) {
	b.Helper()
	g := topology.Abilene()
	r := topology.ComputeRouting(g)
	e := core.NewEngine(g, r, core.Config{})
	tr := itracker.New(itracker.Config{Name: "bench", ASN: 1}, e, itracker.SyntheticPIDMap(g))
	reg := telemetry.NewRegistry()
	tr.Metrics = itracker.NewMetrics(reg)
	h := NewHandler(tr)
	h.Telemetry.Metrics = telemetry.NewHTTPMetrics(reg, "p4p_http")
	// Tracing middleware installed with head sampling off: the
	// production steady state for the hot path, where an unsampled
	// request must cost nothing. TestTracedUnsampledDistancesAllocs pins
	// it; the sampled path has its own tests.
	h.Telemetry.Tracer = &trace.Tracer{Collector: trace.NewCollector(64, 0, 1), SampleRate: 0}
	h.CacheMetrics = NewCacheMetrics(reg)
	h.Telemetry.Preregister()
	return h, tr
}

// benchWriter is a reusable ResponseWriter: header map allocated once,
// body discarded. Benchmarks measure the handler, not the recorder
// httptest would rebuild per request (a real server reuses its
// connection buffers the same way).
type benchWriter struct {
	hdr    http.Header
	status int
	bytes  int
}

func newBenchWriter() *benchWriter { return &benchWriter{hdr: make(http.Header, 8)} }

func (w *benchWriter) Header() http.Header { return w.hdr }

func (w *benchWriter) WriteHeader(status int) { w.status = status }

func (w *benchWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.bytes += len(p)
	return len(p), nil
}

func (w *benchWriter) reset() { w.status = 0; w.bytes = 0 }

// BenchmarkPortalDistances measures a full p4p-distance request in
// steady state: routing, middleware, and the encoded-response cache
// serving the current view as a byte copy, in either encoding (≤4
// allocs/op is the acceptance bar; TestCachedDistancesAllocs pins it).
func BenchmarkPortalDistances(b *testing.B) {
	h, _ := newBenchPortal(b)
	for _, enc := range []struct{ name, accept string }{{"json", ""}, {"binary", BinaryViewType}} {
		b.Run(enc.name, func(b *testing.B) {
			req := httptest.NewRequest(http.MethodGet, "/p4p/v1/distances", nil)
			if enc.accept != "" {
				req.Header.Set("Accept", enc.accept)
			}
			// Prime the caches so iterations measure the steady state.
			h.ServeHTTP(httptest.NewRecorder(), req)
			w := newBenchWriter()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.reset()
				h.ServeHTTP(w, req)
				if w.status != http.StatusOK {
					b.Fatalf("status %d", w.status)
				}
			}
		})
	}
}

// BenchmarkPortalDistances304 measures the conditional-GET fast path:
// an If-None-Match revalidation that short-circuits to 304.
func BenchmarkPortalDistances304(b *testing.B) {
	h, _ := newBenchPortal(b)
	prime := httptest.NewRequest(http.MethodGet, "/p4p/v1/distances", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, prime)
	etag := rec.Header().Get("ETag")
	if etag == "" {
		b.Fatal("no ETag on primed response")
	}
	req := httptest.NewRequest(http.MethodGet, "/p4p/v1/distances", nil)
	req.Header.Set("If-None-Match", etag)
	w := newBenchWriter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.reset()
		h.ServeHTTP(w, req)
		if w.status != http.StatusNotModified {
			b.Fatalf("status %d", w.status)
		}
	}
}

// BenchmarkPortalBatch measures the batch endpoint: 16 src/dst pairs
// answered from the cached view without shipping the matrix.
func BenchmarkPortalBatch(b *testing.B) {
	h, _ := newBenchPortal(b)
	prime := httptest.NewRequest(http.MethodGet, "/p4p/v1/distances", nil)
	h.ServeHTTP(httptest.NewRecorder(), prime)
	pairs := make([]string, 16)
	for i := range pairs {
		pairs[i] = "0-" + string(rune('0'+i%10))
	}
	req := httptest.NewRequest(http.MethodGet,
		"/p4p/v1/distances/batch?pairs="+strings.Join(pairs, ","), nil)
	w := newBenchWriter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.reset()
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			b.Fatalf("status %d", w.status)
		}
	}
}

// BenchmarkClientDistances measures one portal.Client poll of the raw
// view over loopback, both ends included: a 200 that carries and
// decodes a fresh ISP-B view in binary, and a 304 that revalidates the
// cached one (viewPollServer; TestClientViewPollAllocs pins the bytes).
func BenchmarkClientDistances(b *testing.B) {
	for _, tc := range []struct {
		name      string
		alternate bool
	}{{"200", true}, {"304", false}} {
		b.Run(tc.name, func(b *testing.B) {
			c := NewClient(viewPollServer(b, tc.alternate).URL, "")
			if _, err := c.DistancesContext(context.Background()); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.DistancesContext(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkViewRecompute measures the price-update + view
// materialization cycle: one super-gradient step and the p-distance
// matrix rebuild + re-encode it invalidates.
func BenchmarkViewRecompute(b *testing.B) {
	h, tr := newBenchPortal(b)
	loads := make([]float64, tr.Engine().Graph().NumLinks())
	for i := range loads {
		loads[i] = 1e9 * float64(i%7)
	}
	req := httptest.NewRequest(http.MethodGet, "/p4p/v1/distances", nil)
	w := newBenchWriter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.ObserveAndUpdate(loads) // bumps the view version
		w.reset()
		h.ServeHTTP(w, req) // forces the recompute + re-encode
		if w.status != http.StatusOK {
			b.Fatalf("status %d", w.status)
		}
	}
}

// BenchmarkViewCodec prices moving one view of ISP-B's size (52 PIDs)
// in each encoding: what the portal pays once per version to render it
// and what every client pays to hold it.
func BenchmarkViewCodec(b *testing.B) {
	v := ispBView()
	for _, enc := range []struct{ name, form string }{{"json", "raw"}, {"binary", FormBinary}} {
		body, err := EncodeView(v, enc.form)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(enc.name+"-encode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				if _, err := EncodeView(v, enc.form); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(enc.name+"-decode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				if _, err := decodeView(body, enc.name); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
