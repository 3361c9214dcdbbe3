package portal

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"p4p/internal/itracker"
	"p4p/internal/topology"
)

// roundTripperFunc adapts a function to http.RoundTripper for fault
// injection.
type roundTripperFunc func(*http.Request) (*http.Response, error)

func (f roundTripperFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// recordingTransport forwards to the default transport while recording
// each response's status and body size.
type recordingTransport struct {
	statuses []int
	bodies   []int64
}

func (rt *recordingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	rt.statuses = append(rt.statuses, resp.StatusCode)
	rt.bodies = append(rt.bodies, int64(len(body)))
	resp.Body = io.NopCloser(strings.NewReader(string(body)))
	return resp, nil
}

func fastRetry(attempts int) RetryPolicy {
	return RetryPolicy{
		MaxAttempts: attempts,
		BaseDelay:   time.Millisecond,
		MaxDelay:    5 * time.Millisecond,
		PerAttempt:  2 * time.Second,
	}
}

func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	// NaN is not encodable as JSON; before the fix this produced a
	// truncated 200.
	WriteJSON(nil, rec, httptest.NewRequest(http.MethodGet, "/", nil), http.StatusOK, map[string]float64{"d": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "encoding failed") {
		t.Fatalf("body = %q, want error envelope", rec.Body.String())
	}
}

func TestConditionalGETServer(t *testing.T) {
	srv, tr := newTestPortal(t, itracker.Config{Name: "t", ASN: 1})

	get := func(etag string) *http.Response {
		req, _ := http.NewRequest(http.MethodGet, srv.URL+"/p4p/v1/distances", nil)
		if etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	first := get("")
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first GET = %d", first.StatusCode)
	}
	etag := first.Header.Get("ETag")
	if etag == "" {
		t.Fatal("distances response missing ETag")
	}

	// Same version: 304, no body.
	second := get(etag)
	if second.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation = %d, want 304", second.StatusCode)
	}
	body, _ := io.ReadAll(second.Body)
	if len(body) != 0 {
		t.Fatalf("304 carried %d body bytes", len(body))
	}

	// Wildcard and list forms match too.
	if got := get("*").StatusCode; got != http.StatusNotModified {
		t.Fatalf("wildcard revalidation = %d", got)
	}
	if got := get(`"bogus", ` + etag).StatusCode; got != http.StatusNotModified {
		t.Fatalf("list revalidation = %d", got)
	}

	// A stale ETag re-downloads.
	if got := get(`"v999-raw"`).StatusCode; got != http.StatusOK {
		t.Fatalf("stale etag = %d, want 200", got)
	}

	// A version bump invalidates.
	tr.ObserveAndUpdate(make([]float64, tr.Engine().Graph().NumLinks()))
	bumped := get(etag)
	if bumped.StatusCode != http.StatusOK {
		t.Fatalf("post-update revalidation = %d, want 200", bumped.StatusCode)
	}
	if bumped.Header.Get("ETag") == etag {
		t.Fatal("ETag did not change with version")
	}
}

func TestConditionalGETFormsAreDistinct(t *testing.T) {
	srv, _ := newTestPortal(t, itracker.Config{Name: "t", ASN: 1})
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/p4p/v1/distances", nil)
	raw, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw.Body.Close()
	// The raw ETag must not validate the ranks form.
	req2, _ := http.NewRequest(http.MethodGet, srv.URL+"/p4p/v1/distances?form=ranks", nil)
	req2.Header.Set("If-None-Match", raw.Header.Get("ETag"))
	ranks, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer ranks.Body.Close()
	if ranks.StatusCode != http.StatusOK {
		t.Fatalf("ranks with raw etag = %d, want 200", ranks.StatusCode)
	}
	if ranks.Header.Get("ETag") == raw.Header.Get("ETag") {
		t.Fatal("raw and ranks share an ETag")
	}
}

// TestClientConditionalGETReuse is the wire-level acceptance check: a
// repeat Distances() against an unchanged engine returns HTTP 304 with
// zero matrix bytes, and the client serves its cached view.
func TestClientConditionalGETReuse(t *testing.T) {
	srv, tr := newTestPortal(t, itracker.Config{Name: "t", ASN: 1})
	rt := &recordingTransport{}
	c := NewClient(srv.URL, "")
	c.HTTPClient = &http.Client{Transport: rt}

	v1, err := c.DistancesContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	v2, err := c.DistancesContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v2 != v1 {
		t.Fatal("revalidated fetch did not reuse the cached view")
	}
	if len(rt.statuses) != 2 || rt.statuses[1] != http.StatusNotModified {
		t.Fatalf("statuses = %v, want [200 304]", rt.statuses)
	}
	if rt.bodies[1] != 0 {
		t.Fatalf("304 moved %d body bytes over the wire", rt.bodies[1])
	}

	// Version bump: full re-download with a fresh view.
	tr.ObserveAndUpdate(make([]float64, tr.Engine().Graph().NumLinks()))
	v3, err := c.DistancesContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v3 == v1 || v3.Version == v1.Version {
		t.Fatal("view not refreshed after version bump")
	}
	if rt.statuses[2] != http.StatusOK || rt.bodies[2] == 0 {
		t.Fatalf("post-bump fetch = %d (%d bytes), want a full 200", rt.statuses[2], rt.bodies[2])
	}
}

func TestClientRetriesFlakyTransport(t *testing.T) {
	srv, _ := newTestPortal(t, itracker.Config{Name: "t", ASN: 1})
	var calls atomic.Int64
	c := NewClient(srv.URL, "")
	c.Retry = fastRetry(3)
	c.HTTPClient = &http.Client{Transport: roundTripperFunc(func(r *http.Request) (*http.Response, error) {
		if calls.Add(1) <= 2 {
			return nil, errors.New("injected: connection reset")
		}
		return http.DefaultTransport.RoundTrip(r)
	})}
	v, err := c.DistancesContext(context.Background())
	if err != nil {
		t.Fatalf("flaky transport should succeed on 3rd attempt: %v", err)
	}
	if len(v.PIDs) == 0 {
		t.Fatal("empty view")
	}
	if calls.Load() != 3 {
		t.Fatalf("attempts = %d, want 3", calls.Load())
	}
}

func TestClientGivesUpAfterMaxAttempts(t *testing.T) {
	var calls atomic.Int64
	c := NewClient("http://portal.invalid", "")
	c.Retry = fastRetry(3)
	c.HTTPClient = &http.Client{Transport: roundTripperFunc(func(r *http.Request) (*http.Response, error) {
		calls.Add(1)
		return nil, errors.New("injected: no route to host")
	})}
	_, err := c.DistancesContext(context.Background())
	if err == nil {
		t.Fatal("expected failure")
	}
	if calls.Load() != 3 {
		t.Fatalf("attempts = %d, want 3", calls.Load())
	}
	if !strings.Contains(err.Error(), "giving up after 3") {
		t.Fatalf("err = %v, want attempt count", err)
	}
}

func TestClientRetriesServerErrors(t *testing.T) {
	var hits atomic.Int64
	inner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"error":"warming up"}`)
			return
		}
		fmt.Fprintln(w, `{"near_congestion_util":0.7}`)
	}))
	defer inner.Close()
	c := NewClient(inner.URL, "")
	c.Retry = fastRetry(5)
	var pol itracker.Policy
	err := c.doJSON(context.Background(), http.MethodGet, "/p4p/v1/policy", nil, nil, &pol)
	if err != nil {
		t.Fatalf("5xx should be retried: %v", err)
	}
	if pol.NearCongestionUtil != 0.7 {
		t.Fatalf("policy = %+v", pol)
	}
	if hits.Load() != 3 {
		t.Fatalf("requests = %d, want 3", hits.Load())
	}
}

func TestClientDoesNotRetryAccessDenied(t *testing.T) {
	srv, _ := newTestPortal(t, itracker.Config{Name: "t", ASN: 1, TrustedTokens: []string{"s3cr3t"}})
	var calls atomic.Int64
	c := NewClient(srv.URL, "wrong")
	c.Retry = fastRetry(5)
	c.HTTPClient = &http.Client{Transport: roundTripperFunc(func(r *http.Request) (*http.Response, error) {
		calls.Add(1)
		return http.DefaultTransport.RoundTrip(r)
	})}
	_, err := c.DistancesContext(context.Background())
	if err == nil {
		t.Fatal("expected denial")
	}
	if calls.Load() != 1 {
		t.Fatalf("403 was retried: %d attempts", calls.Load())
	}
	if !strings.Contains(err.Error(), "403") || !strings.Contains(err.Error(), "denied") {
		t.Fatalf("err = %v, want decoded 403 envelope", err)
	}
}

func TestClientPerAttemptTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	var hits atomic.Int64
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer slow.Close()
	c := NewClient(slow.URL, "")
	c.HTTPClient = &http.Client{}
	c.Retry = RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, PerAttempt: 30 * time.Millisecond}
	start := time.Now()
	_, err := c.DistancesContext(context.Background())
	if err == nil {
		t.Fatal("expected timeout")
	}
	if hits.Load() != 2 {
		t.Fatalf("slow server hit %d times, want 2 (per-attempt deadline per try)", hits.Load())
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("took %v; per-attempt deadlines not enforced", elapsed)
	}
}

func TestClientHonorsCallerContext(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer slow.Close()
	c := NewClient(slow.URL, "")
	c.HTTPClient = &http.Client{}
	c.Retry = RetryPolicy{MaxAttempts: 10, BaseDelay: time.Millisecond, PerAttempt: 10 * time.Second}
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.DistancesContext(ctx)
	if err == nil {
		t.Fatal("expected cancellation")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v; caller context not honored", elapsed)
	}
}

func TestLookupPIDRejectsInvalidIP(t *testing.T) {
	var calls atomic.Int64
	c := NewClient("http://portal.invalid", "")
	c.HTTPClient = &http.Client{Transport: roundTripperFunc(func(r *http.Request) (*http.Response, error) {
		calls.Add(1)
		return nil, errors.New("should not be reached")
	})}
	if _, err := c.LookupPIDContext(context.Background(), nil); err == nil {
		t.Fatal("nil IP should fail before any request")
	}
	if _, err := c.LookupPIDContext(context.Background(), net.IP{1, 2}); err == nil {
		t.Fatal("malformed IP should fail before any request")
	}
	if calls.Load() != 0 {
		t.Fatalf("invalid IP still issued %d request(s)", calls.Load())
	}
}

func TestMalformedIPParam(t *testing.T) {
	srv, _ := newTestPortal(t, itracker.Config{Name: "t", ASN: 1})
	for _, q := range []string{"", "?ip=", "?ip=not-an-ip"} {
		resp, err := http.Get(srv.URL + "/p4p/v1/pid" + q)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("pid%s = %d, want 400", q, resp.StatusCode)
		}
		if !strings.Contains(string(body), "malformed ip") {
			t.Fatalf("pid%s body = %q", q, body)
		}
	}
}

func TestAccessDeniedStatus(t *testing.T) {
	srv, _ := newTestPortal(t, itracker.Config{Name: "t", ASN: 1, TrustedTokens: []string{"tok"}})
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/p4p/v1/distances", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("status = %d, want 403", resp.StatusCode)
	}
	var e errorWire
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("403 missing error envelope: %v %+v", err, e)
	}
}

func TestFromWireRejectsRaggedAndNonFinite(t *testing.T) {
	good := &ViewWire{PIDs: []topology.PID{0, 1}, Matrix: [][]float64{{0, 2}, {2, 0}}, Version: 3}
	v, err := FromWire(good)
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip back out preserves everything, including the
	// unreachable sentinel.
	v.D[0][1] = math.Inf(1)
	rt, err := FromWire(ToWire(v))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(rt.D[0][1], 1) || rt.Version != 3 {
		t.Fatalf("round trip = %+v", rt)
	}
	bad := []*ViewWire{
		{PIDs: []topology.PID{0, 1}, Matrix: [][]float64{{0, 1}, {1}}},
		{PIDs: []topology.PID{0, 1}, Matrix: [][]float64{{0, 1}, {1, 0}, {0, 0}}},
		{PIDs: []topology.PID{0, 1}, Matrix: [][]float64{{0, math.NaN()}, {1, 0}}},
	}
	for i, w := range bad {
		if _, err := FromWire(w); err == nil {
			t.Errorf("case %d: malformed wire view accepted", i)
		}
	}
	// Negatives are not malformed: they decode as unreachable.
	neg, err := FromWire(&ViewWire{PIDs: []topology.PID{0, 1}, Matrix: [][]float64{{0, -0.5}, {1, 0}}})
	if err != nil || !math.IsInf(neg.D[0][1], 1) {
		t.Fatalf("negative distance not tolerated as unreachable: %v %v", neg, err)
	}
}

// TestClientDoesNotPresizeFromDeclaredLength: a backend that declares a
// 64 MB body and sends ten bytes must cost the caller an error, not a
// 64 MB buffer per attempt held until the per-attempt timeout.
func TestClientDoesNotPresizeFromDeclaredLength(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", fmt.Sprint(maxResponseBody))
		io.WriteString(w, "0123456789")
		// Returning short of the declared length makes net/http drop
		// the connection: the client sees an unexpected EOF.
	}))
	defer srv.Close()
	c := NewClient(srv.URL, "")
	c.Retry = fastRetry(1)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := c.DistancesContext(context.Background())
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated body decoded without error")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<20 {
		t.Fatalf("one attempt against a lying Content-Length allocated %d bytes, want < 4 MiB", got)
	}
}
