package telemetry

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"p4p/internal/leaktest"
	"p4p/internal/trace"
)

func TestValidRequestID(t *testing.T) {
	for _, ok := range []string{"abc123", "a1b2c3d4-000001", "A.B_C-9"} {
		if !ValidRequestID(ok) {
			t.Errorf("rejected valid ID %q", ok)
		}
	}
	for _, bad := range []string{"", "has space", "semi;colon", "new\nline", strings.Repeat("x", 65), "quo\"te"} {
		if ValidRequestID(bad) {
			t.Errorf("accepted invalid ID %q", bad)
		}
	}
}

func TestMiddlewareAdoptsInboundRequestID(t *testing.T) {
	var mw Middleware
	var sawCtxID string
	h := mw.RouteFunc("r", func(w http.ResponseWriter, r *http.Request) {
		sawCtxID = RequestID(r.Context())
	})
	mw.Logger = slog.New(slog.NewTextHandler(io.Discard, nil)) // logger attached so the context carries the ID

	// A valid inbound ID is adopted and echoed.
	req := httptest.NewRequest("GET", "/x", nil)
	req.Header.Set("X-Request-Id", "upstream-42")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-Id"); got != "upstream-42" {
		t.Errorf("echoed ID %q, want adopted upstream-42", got)
	}
	if sawCtxID != "upstream-42" {
		t.Errorf("context ID %q, want adopted upstream-42", sawCtxID)
	}

	// A hostile inbound ID is replaced with a minted one.
	req = httptest.NewRequest("GET", "/x", nil)
	req.Header.Set("X-Request-Id", "bad id\nwith junk")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-Id"); got == "" || strings.Contains(got, " ") {
		t.Errorf("hostile inbound ID not replaced: %q", got)
	}
}

func TestMiddlewareServerSpan(t *testing.T) {
	c := trace.NewCollector(8, 0, 1)
	var mw Middleware
	mw.Tracer = trace.NewTracer(c)
	leaktest.Check(t, mw.Tracer)
	var activeInHandler bool
	var ctxID string
	h := mw.RouteFunc("distances", func(w http.ResponseWriter, r *http.Request) {
		activeInHandler = trace.FromContext(r.Context()) != nil
		ctxID = RequestID(r.Context())
		w.WriteHeader(http.StatusOK)
	})

	const inbound = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	req := httptest.NewRequest("GET", "/x", nil)
	req.Header.Set("Traceparent", inbound)
	req.Header.Set("X-Request-Id", "caller-7")
	h.ServeHTTP(httptest.NewRecorder(), req)

	if !activeInHandler {
		t.Fatal("handler context carried no active span")
	}
	if ctxID != "caller-7" {
		t.Errorf("handler context ID %q, want caller-7 (no logger, span sampled)", ctxID)
	}
	snap := c.Snapshot()
	if len(snap.Traces) != 1 {
		t.Fatalf("kept %d traces, want 1", len(snap.Traces))
	}
	span := snap.Traces[0].Spans[0]
	if span.Name != "distances" {
		t.Errorf("server span name %q, want route name", span.Name)
	}
	if snap.Traces[0].TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("trace ID %q, want the caller's", snap.Traces[0].TraceID)
	}
	if span.ParentSpanID != "00f067aa0ba902b7" {
		t.Errorf("server span parent %q, want the caller's span", span.ParentSpanID)
	}
	attrs := map[string]string{}
	for _, a := range span.Attrs {
		attrs[a.Key] = a.Value
	}
	if attrs["http.method"] != "GET" || attrs["request_id"] != "caller-7" || attrs["http.status"] != "200" {
		t.Errorf("span attrs = %v", attrs)
	}
}

func TestMiddlewareUnsampledInboundSkipsSpan(t *testing.T) {
	c := trace.NewCollector(8, 0, 1)
	var mw Middleware
	mw.Tracer = trace.NewTracer(c)
	leaktest.Check(t, mw.Tracer)
	var active bool
	h := mw.RouteFunc("r", func(w http.ResponseWriter, r *http.Request) {
		active = trace.FromContext(r.Context()) != nil
	})
	req := httptest.NewRequest("GET", "/x", nil)
	req.Header.Set("Traceparent", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00")
	h.ServeHTTP(httptest.NewRecorder(), req)
	if active {
		t.Error("unsampled inbound request got an active span")
	}
	if kept := c.Snapshot().Kept; kept != 0 {
		t.Errorf("unsampled request recorded %d traces", kept)
	}
}

func TestMiddleware5xxMarksSpanErrored(t *testing.T) {
	// Keep rate 0 and an unreachable slow threshold: only the error
	// rule can keep a trace, so keeping proves the 5xx was recorded.
	c := trace.NewCollector(8, 1<<62, 0)
	var mw Middleware
	mw.Tracer = trace.NewTracer(c)
	leaktest.Check(t, mw.Tracer)
	h := mw.RouteFunc("r", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/x", nil))
	snap := c.Snapshot()
	if snap.Kept != 1 {
		t.Fatalf("errored trace not kept: %+v", snap)
	}
	if snap.Traces[0].Spans[0].Error == "" {
		t.Error("server span has no error recorded")
	}
}
