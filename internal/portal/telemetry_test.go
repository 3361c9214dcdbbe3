package portal

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"p4p/internal/core"
	"p4p/internal/itracker"
	"p4p/internal/telemetry"
	"p4p/internal/topology"
)

// newInstrumentedPortal builds a portal with a full telemetry registry
// attached: HTTP middleware on the server, engine metrics on the
// tracker, and client metrics on the returned client.
func newInstrumentedPortal(t *testing.T) (*httptest.Server, *itracker.Server, *Client, *telemetry.Registry) {
	t.Helper()
	g := topology.Abilene()
	r := topology.ComputeRouting(g)
	e := core.NewEngine(g, r, core.Config{})
	tr := itracker.New(itracker.Config{Name: "t", ASN: 1}, e, itracker.SyntheticPIDMap(g))
	reg := telemetry.NewRegistry()
	tr.Metrics = itracker.NewMetrics(reg)
	h := NewHandler(tr)
	h.Telemetry.Metrics = telemetry.NewHTTPMetrics(reg, "p4p_http")
	h.Telemetry.Preregister()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL, "")
	c.Metrics = NewClientMetrics(reg)
	return srv, tr, c, reg
}

func exposition(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestEndToEndRequestMetrics is the acceptance test for the telemetry
// wiring: a portal request increments the per-route request counter and
// latency histogram, the 304 revalidation path increments both the
// server's and the client's ETag-hit counters, and the engine metrics
// record the view recompute. No wall-clock sleeps anywhere.
func TestEndToEndRequestMetrics(t *testing.T) {
	_, tr, c, reg := newInstrumentedPortal(t)

	// First fetch: full download, one recompute.
	if _, err := c.DistancesContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	exp := exposition(t, reg)
	for _, want := range []string{
		`p4p_http_requests_total{route="distances",class="2xx"} 1`,
		`p4p_http_requests_total{route="distances",class="3xx"} 0`,
		`p4p_http_etag_hits_total{route="distances"} 0`,
		`p4p_itracker_view_version 0`,
		`p4p_client_etag_hits_total 0`,
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("after first fetch, exposition missing %q", want)
		}
	}
	if !strings.Contains(exp, `p4p_itracker_view_recompute_seconds_count 1`) {
		t.Error("recompute histogram did not record the materialization")
	}
	if !strings.Contains(exp, `p4p_http_request_duration_seconds_count{route="distances"} 1`) {
		t.Error("latency histogram did not record the request")
	}

	// Second fetch: client revalidates, server answers 304.
	if _, err := c.DistancesContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	exp = exposition(t, reg)
	for _, want := range []string{
		`p4p_http_requests_total{route="distances",class="3xx"} 1`,
		`p4p_http_etag_hits_total{route="distances"} 1`,
		`p4p_client_etag_hits_total 1`,
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("after revalidation, exposition missing %q", want)
		}
	}
	// The 304 path must not re-materialize the view.
	if !strings.Contains(exp, `p4p_itracker_view_recompute_seconds_count 1`) {
		t.Error("304 path re-materialized the view")
	}

	// A price update moves the convergence gauges and version.
	loads := make([]float64, tr.Engine().Graph().NumLinks())
	loads[0] = 5e9
	tr.ObserveAndUpdate(loads)
	if _, err := c.DistancesContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	exp = exposition(t, reg)
	for _, want := range []string{
		`p4p_itracker_price_updates_total 1`,
		`p4p_itracker_view_version 1`,
		`p4p_itracker_view_recompute_seconds_count 2`,
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("after price update, exposition missing %q", want)
		}
	}
	if strings.Contains(exp, "p4p_itracker_supergradient_norm 0\n") {
		t.Error("supergradient norm still zero after a loaded update")
	}
	if strings.Contains(exp, "p4p_itracker_max_link_utilization 0\n") {
		t.Error("MLU gauge still zero after a loaded update")
	}
}

// TestClientRetryMetrics drives the retry loop with an injected flaky
// transport and checks the retry/backoff/failure counters.
func TestClientRetryMetrics(t *testing.T) {
	srv, _, c, reg := newInstrumentedPortal(t)
	var calls atomic.Int64
	c.Retry = fastRetry(3)
	c.HTTPClient = &http.Client{Transport: roundTripperFunc(func(r *http.Request) (*http.Response, error) {
		if calls.Add(1) <= 2 {
			return nil, errors.New("injected: connection reset")
		}
		return http.DefaultTransport.RoundTrip(r)
	})}
	if _, err := c.DistancesContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := c.Metrics.Retries.Value(); got != 2 {
		t.Errorf("retries = %v, want 2", got)
	}
	if got := c.Metrics.BackoffSeconds.Value(); got <= 0 {
		t.Errorf("backoff seconds = %v, want > 0", got)
	}
	if got := c.Metrics.Failures.Value(); got != 0 {
		t.Errorf("failures = %v, want 0", got)
	}

	// Now a permanently dead transport: the request exhausts attempts.
	c2 := NewClient(srv.URL, "")
	c2.Metrics = c.Metrics
	c2.Retry = fastRetry(2)
	c2.HTTPClient = &http.Client{Transport: roundTripperFunc(func(r *http.Request) (*http.Response, error) {
		return nil, errors.New("injected: no route to host")
	})}
	if _, err := c2.DistancesContext(context.Background()); err == nil {
		t.Fatal("expected failure")
	}
	if got := c.Metrics.Failures.Value(); got != 1 {
		t.Errorf("failures = %v, want 1", got)
	}
	exp := exposition(t, reg)
	if !strings.Contains(exp, "p4p_client_retries_total 3") {
		t.Errorf("exposition missing retry counter:\n%s", exp)
	}
}

// TestBackoffGuardsNonPositiveDurations covers the jitter fix: the old
// rand.Int63n(int64(d)) panicked whenever the computed delay was <= 0
// (zero-valued policies or shift overflow on deep attempts).
func TestBackoffGuardsNonPositiveDurations(t *testing.T) {
	cases := []struct {
		name string
		pol  RetryPolicy
		n    int
	}{
		{"zero policy", RetryPolicy{}, 1},
		{"negative base", RetryPolicy{BaseDelay: -time.Second, MaxDelay: -time.Second}, 1},
		{"shift overflow", RetryPolicy{BaseDelay: time.Second, MaxDelay: time.Hour}.withDefaults(), 80},
		{"defaults", RetryPolicy{}.withDefaults(), 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.pol.backoff(tc.n) // must not panic
			if d < 0 {
				t.Errorf("backoff(%d) = %v, want >= 0", tc.n, d)
			}
			if max := tc.pol.MaxDelay; max > 0 && d > max {
				t.Errorf("backoff(%d) = %v exceeds MaxDelay %v", tc.n, d, max)
			}
		})
	}
}

// TestRequestIDPropagation checks the middleware stamps X-Request-ID on
// portal responses.
func TestRequestIDPropagation(t *testing.T) {
	srv, _, _, _ := newInstrumentedPortal(t)
	resp, err := http.Get(srv.URL + "/p4p/v1/policy")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("portal response missing X-Request-ID")
	}
}
