package telemetry

import (
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestMiddlewareRecordsRouteMetrics(t *testing.T) {
	reg := NewRegistry()
	var logBuf strings.Builder
	mw := &Middleware{
		Metrics: NewHTTPMetrics(reg, "p4p_http"),
		Logger:  slog.New(slog.NewTextHandler(&logBuf, nil)),
	}
	var gotReqID string
	h := mw.RouteFunc("distances", func(w http.ResponseWriter, r *http.Request) {
		gotReqID = RequestID(r.Context())
		w.WriteHeader(http.StatusNotModified)
	})

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/p4p/v1/distances", nil))

	if gotReqID == "" {
		t.Fatal("request ID not carried through context")
	}
	if hdr := rec.Header().Get("X-Request-ID"); hdr != gotReqID {
		t.Errorf("X-Request-ID = %q, want %q", hdr, gotReqID)
	}
	if !strings.Contains(logBuf.String(), "request_id="+gotReqID) {
		t.Errorf("slog line missing request_id: %s", logBuf.String())
	}
	if got := mw.Metrics.requests.With("distances", "3xx").Value(); got != 1 {
		t.Errorf("3xx counter = %v, want 1", got)
	}
	if got := mw.Metrics.etagHits.With("distances").Value(); got != 1 {
		t.Errorf("etag hit counter = %v, want 1", got)
	}
	if got := mw.Metrics.latency.With("distances").Count(); got != 1 {
		t.Errorf("latency observations = %d, want 1", got)
	}
}

func TestMiddlewareDefaultStatusIs200(t *testing.T) {
	reg := NewRegistry()
	mw := &Middleware{Metrics: NewHTTPMetrics(reg, "p4p_http")}
	h := mw.RouteFunc("policy", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok")) // implicit 200
	})
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	if got := mw.Metrics.requests.With("policy", "2xx").Value(); got != 1 {
		t.Errorf("2xx counter = %v, want 1", got)
	}
}

// TestMiddlewareLateMetrics proves fields may be set after routes are
// registered: the binaries build the handler first, then attach
// telemetry.
func TestMiddlewareLateMetrics(t *testing.T) {
	mw := &Middleware{}
	h := mw.RouteFunc("pid", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
	})
	// No metrics yet: must not panic.
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))

	reg := NewRegistry()
	mw.Metrics = NewHTTPMetrics(reg, "p4p_http")
	mw.Preregister()
	var b strings.Builder
	reg.WritePrometheus(&b)
	if !strings.Contains(b.String(), `p4p_http_requests_total{route="pid",class="5xx"} 0`) {
		t.Errorf("preregistered schema missing:\n%s", b.String())
	}
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	if got := mw.Metrics.requests.With("pid", "4xx").Value(); got != 1 {
		t.Errorf("4xx counter = %v, want 1", got)
	}
}

func TestRegistryHandlerContentType(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c", "h").Inc()
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "c 1") {
		t.Errorf("body = %q", rec.Body.String())
	}
}

// parkedWriter is a ResponseWriter whose Write closes writing and then
// waits for release: a scraper that stopped reading.
type parkedWriter struct {
	header           http.Header
	writing, release chan struct{}
}

func (w *parkedWriter) Header() http.Header { return w.header }
func (w *parkedWriter) WriteHeader(int)     {}
func (w *parkedWriter) Write(b []byte) (int, error) {
	close(w.writing)
	<-w.release
	return len(b), nil
}

// TestRegistryHandlerWritesOutsideLock pins the exposition handler
// against writing under the registry's lock: while a scrape's write is
// parked, registering a new counter on another goroutine completes.
func TestRegistryHandlerWritesOutsideLock(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c", "h").Inc()
	w := &parkedWriter{header: http.Header{}, writing: make(chan struct{}), release: make(chan struct{})}
	served := make(chan struct{})
	go func() {
		reg.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
		close(served)
	}()
	select {
	case <-w.writing:
	case <-time.After(2 * time.Second):
		t.Fatal("the handler never wrote")
	}
	registered := make(chan struct{})
	go func() {
		reg.Counter("late", "registered during a parked scrape").Inc()
		close(registered)
	}()
	select {
	case <-registered:
	case <-time.After(2 * time.Second):
		t.Error("Registry.Counter blocked behind a parked /metrics write")
	}
	close(w.release)
	<-served
	<-registered
}

func TestRequestIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := NewRequestID()
		if seen[id] {
			t.Fatalf("duplicate request ID %q", id)
		}
		seen[id] = true
	}
}

func TestRegisterPprof(t *testing.T) {
	mux := http.NewServeMux()
	RegisterPprof(mux)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("pprof index = %d, want 200", rec.Code)
	}
}
