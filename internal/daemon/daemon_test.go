package daemon

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"p4p/internal/leaktest"
)

// TestServeReturnsOnCancel serves on an ephemeral loopback port, cancels
// the context and requires Serve to drain and return with its listener
// goroutine gone, leaving the observability routes on the mux.
func TestServeReturnsOnCancel(t *testing.T) {
	leaktest.Check(t)
	off, on := false, true
	slow, rate, keep, capacity := time.Second, 1.0, 1.0, 4
	f := &Flags{pprofOn: &off, logJSON: &off, tracesOn: &on,
		traceSlow: &slow, traceSample: &rate, traceKeep: &keep, traceCap: &capacity}
	d := f.Start()
	d.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	mux := http.NewServeMux()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d.Serve(ctx, "127.0.0.1:0", mux, "test listening")

	for _, path := range []string{"/metrics", "/debug/traces"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("GET %s after Serve = %d, want 200", path, rec.Code)
		}
	}
}
