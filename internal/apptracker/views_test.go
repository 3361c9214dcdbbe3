package apptracker

import (
	"context"
	"errors"
	"math/rand"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p4p/internal/core"
	"p4p/internal/itracker"
	"p4p/internal/portal"
	"p4p/internal/telemetry"
	"p4p/internal/topology"
)

// fakeClock is an injectable clock: tests advance it explicitly
// instead of sleeping past TTL and backoff windows, so nothing here
// depends on scheduler latency (the old wall-clock sleeps flaked under
// -race on loaded machines).
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// scriptedFetcher returns canned views/errors in sequence, recording
// call counts. When started is non-nil it receives each call number as
// the fetch begins, so tests can synchronize on "the refresh is now in
// flight" instead of polling.
type scriptedFetcher struct {
	calls   atomic.Int64
	started chan int64
	fn      func(n int64) (*core.View, error)
}

func (f *scriptedFetcher) DistancesContext(ctx context.Context) (*core.View, error) {
	n := f.calls.Add(1)
	if f.started != nil {
		f.started <- n
	}
	return f.fn(n)
}

// awaitCall fails the test unless the fetcher reports call n starting
// within two seconds (a watchdog bound, not a pacing sleep).
func awaitCall(t *testing.T, started <-chan int64, n int64) {
	t.Helper()
	for {
		select {
		case got := <-started:
			if got >= n {
				return
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("fetch call %d never started", n)
		}
	}
}

func testView(version int) *core.View {
	return &core.View{
		PIDs:    []topology.PID{0, 1, 2},
		D:       [][]float64{{0, 1, 5}, {1, 0, 2}, {5, 2, 0}},
		Version: version,
	}
}

func TestPortalViewsServesLastKnownGood(t *testing.T) {
	want := testView(1)
	f := &scriptedFetcher{fn: func(n int64) (*core.View, error) {
		if n == 1 {
			return want, nil
		}
		return nil, errors.New("injected: portal down")
	}}
	clk := newFakeClock()
	p := NewPortalViews(f, time.Millisecond)
	p.FailureBackoff = time.Millisecond
	p.nowFn = clk.Now

	if got := p.ViewFor(1); got != DistanceView(want) {
		t.Fatalf("first fetch = %v", got)
	}
	clk.Advance(2 * time.Millisecond) // expire TTL and backoff
	for i := 0; i < 3; i++ {
		if got := p.ViewFor(1); got != DistanceView(want) {
			t.Fatalf("call %d: stale view not served, got %v", i, got)
		}
		clk.Advance(2 * time.Millisecond)
	}
	s := p.Stats()
	if s.Refreshes != 1 || s.Failures < 1 || s.StaleServes < 1 {
		t.Fatalf("stats = %+v", s)
	}
	if _, _, ok := p.LastKnownGood(); !ok {
		t.Fatal("last-known-good lost")
	}
}

func TestPortalViewsNilBeforeFirstFetch(t *testing.T) {
	f := &scriptedFetcher{fn: func(int64) (*core.View, error) {
		return nil, errors.New("injected: portal never up")
	}}
	p := NewPortalViews(f, time.Minute)
	if v := p.ViewFor(1); v != nil {
		t.Fatalf("expected nil view, got %#v", v)
	}
	if s := p.Stats(); s.NilServes != 1 || s.Failures != 1 {
		t.Fatalf("stats = %+v", s)
	}
	// The selector must still produce peers (native fallback).
	sel := &P4P{Views: p}
	rng := rand.New(rand.NewSource(1))
	self := Node{ID: 0, PID: 0, ASN: 1}
	var cands []Node
	for i := 1; i <= 10; i++ {
		cands = append(cands, Node{ID: i, PID: topology.PID(i % 3), ASN: 1})
	}
	idx := sel.Select(self, cands, 4, rng)
	if len(idx) != 4 {
		t.Fatalf("selection degraded to %d peers, want 4", len(idx))
	}
}

func TestPortalViewsFailureBackoff(t *testing.T) {
	f := &scriptedFetcher{fn: func(int64) (*core.View, error) {
		return nil, errors.New("injected: portal down")
	}}
	p := NewPortalViews(f, time.Nanosecond)
	p.FailureBackoff = time.Hour
	p.ViewFor(1)
	for i := 0; i < 5; i++ {
		p.ViewFor(1)
	}
	if n := f.calls.Load(); n != 1 {
		t.Fatalf("dead portal probed %d times within backoff, want 1", n)
	}
}

// TestViewMetricsMirrorStats drives the cache through refresh, failure,
// stale-serve, and nil-serve and checks the telemetry counters track
// the ViewStats struct exactly.
func TestViewMetricsMirrorStats(t *testing.T) {
	reg := telemetry.NewRegistry()
	f := &scriptedFetcher{fn: func(n int64) (*core.View, error) {
		if n == 1 {
			return testView(1), nil
		}
		return nil, errors.New("injected: portal down")
	}}
	clk := newFakeClock()
	p := NewPortalViews(f, time.Millisecond)
	p.FailureBackoff = time.Millisecond
	p.nowFn = clk.Now
	p.Metrics = NewViewMetrics(reg)

	p.ViewFor(1) // refresh
	clk.Advance(2 * time.Millisecond)
	p.ViewFor(1) // failure + stale serve
	clk.Advance(2 * time.Millisecond)
	p.ViewFor(1) // failure + stale serve

	s := p.Stats()
	checks := []struct {
		name string
		c    *telemetry.Counter
		want int64
	}{
		{"refreshes", p.Metrics.Refreshes, s.Refreshes},
		{"failures", p.Metrics.Failures, s.Failures},
		{"stale_serves", p.Metrics.StaleServes, s.StaleServes},
		{"nil_serves", p.Metrics.NilServes, s.NilServes},
		{"coalesces", p.Metrics.Coalesces, s.Coalesces},
	}
	for _, c := range checks {
		if got := int64(c.c.Value()); got != c.want {
			t.Errorf("metric %s = %d, stats say %d", c.name, got, c.want)
		}
	}
	if s.Refreshes != 1 || s.Failures < 1 || s.StaleServes < 1 {
		t.Errorf("scenario did not exercise the counters: %+v", s)
	}

	// Nil-serve path on a fresh cache that never fetched.
	p2 := NewPortalViews(&scriptedFetcher{fn: func(int64) (*core.View, error) {
		return nil, errors.New("injected: portal never up")
	}}, time.Minute)
	p2.Metrics = NewViewMetrics(telemetry.NewRegistry())
	p2.ViewFor(1)
	if got := p2.Metrics.NilServes.Value(); got != 1 {
		t.Errorf("nil serves = %v, want 1", got)
	}
}

// TestCoalescedReadsCounted checks that selections answered from the
// previous view during an in-flight refresh are counted as coalesces.
func TestCoalescedReadsCounted(t *testing.T) {
	reg := telemetry.NewRegistry()
	block := make(chan struct{})
	started := make(chan int64, 8)
	f := &scriptedFetcher{started: started, fn: func(n int64) (*core.View, error) {
		if n == 1 {
			return testView(1), nil
		}
		<-block
		return testView(2), nil
	}}
	clk := newFakeClock()
	p := NewPortalViews(f, time.Millisecond)
	p.nowFn = clk.Now
	p.Metrics = NewViewMetrics(reg)
	p.ViewFor(1) // prime
	awaitCall(t, started, 1)
	clk.Advance(2 * time.Millisecond)

	go p.ViewFor(1) // blocks in the refresh
	awaitCall(t, started, 2)
	p.ViewFor(1) // must coalesce onto the stale view
	close(block)

	if got := p.Metrics.Coalesces.Value(); got < 1 {
		t.Errorf("coalesces = %v, want >= 1", got)
	}
	if s := p.Stats(); s.Coalesces < 1 {
		t.Errorf("stats coalesces = %d, want >= 1", s.Coalesces)
	}
}

func TestPortalViewsConcurrentRefreshSingleflight(t *testing.T) {
	block := make(chan struct{})
	started := make(chan int64, 8)
	f := &scriptedFetcher{started: started, fn: func(n int64) (*core.View, error) {
		if n == 1 {
			return testView(1), nil
		}
		<-block
		return testView(2), nil
	}}
	clk := newFakeClock()
	p := NewPortalViews(f, time.Millisecond)
	p.nowFn = clk.Now
	p.ViewFor(1) // prime
	awaitCall(t, started, 1)
	clk.Advance(2 * time.Millisecond)

	// One goroutine starts a (blocked) refresh; concurrent callers must
	// be answered from the stale view immediately rather than piling up.
	go p.ViewFor(1)
	awaitCall(t, started, 2)
	done := make(chan DistanceView)
	go func() { done <- p.ViewFor(1) }()
	select {
	case v := <-done:
		if v == nil {
			t.Fatal("stale view not served during refresh")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("selection blocked behind an in-flight refresh")
	}
	close(block)
}

// TestPortalViewsPanickingFetchDoesNotWedge is the regression test for
// the wedged singleflight: a fetch that panicked used to leave the
// in-flight marker set, so every later ViewFor coalesced onto stale data
// forever. The marker is released under defer and the panic is booked
// as a failed refresh, so after the failure backoff a healthy fetch
// refreshes normally.
func TestPortalViewsPanickingFetchDoesNotWedge(t *testing.T) {
	f := &scriptedFetcher{fn: func(n int64) (*core.View, error) {
		if n == 2 {
			panic("injected: client panicked mid-fetch")
		}
		return testView(int(n)), nil
	}}
	clk := newFakeClock()
	p := NewPortalViews(f, time.Millisecond)
	p.FailureBackoff = time.Millisecond
	p.nowFn = clk.Now
	if p.ViewFor(1) == nil {
		t.Fatal("priming fetch failed")
	}
	clk.Advance(2 * time.Millisecond)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the fetch panic did not reach the refreshing caller")
			}
		}()
		p.ViewFor(1)
	}()
	clk.Advance(2 * time.Millisecond) // past TTL and backoff
	v := p.ViewFor(1)
	if v == nil || v.Version != 3 {
		t.Fatalf("view after the panic = %+v, want version 3 from a new fetch", v)
	}
	if s := p.Stats(); s.Refreshes != 2 || s.Failures != 1 {
		t.Errorf("stats = %+v, want 2 refreshes and the panic counted as 1 failure", s)
	}
}

// TestSelectionSurvivesPortalOutage is the end-to-end acceptance test:
// a real portal server feeds a real client once; then the portal goes
// fully down and peer selection keeps running off the last-known-good
// view, flagged in the stats.
func TestSelectionSurvivesPortalOutage(t *testing.T) {
	g := topology.Abilene()
	r := topology.ComputeRouting(g)
	e := core.NewEngine(g, r, core.Config{})
	tr := itracker.New(itracker.Config{Name: "t", ASN: 1}, e, itracker.SyntheticPIDMap(g))
	srv := httptest.NewServer(portal.NewHandler(tr))

	client := portal.NewClient(srv.URL, "")
	client.Retry = portal.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, PerAttempt: time.Second}
	clk := newFakeClock()
	views := NewPortalViews(client, time.Millisecond)
	views.FailureBackoff = time.Millisecond
	views.nowFn = clk.Now

	if v := views.ViewFor(1); v == nil {
		t.Fatal("initial fetch failed")
	}

	// Portal goes fully down; advance the clock past the TTL so the
	// next selection must attempt (and fail) a refresh.
	srv.Close()
	clk.Advance(2 * time.Millisecond)

	sel := &P4P{Views: views}
	rng := rand.New(rand.NewSource(42))
	self := Node{ID: 0, PID: 0, ASN: 1}
	var cands []Node
	for i := 1; i <= 20; i++ {
		cands = append(cands, Node{ID: i, PID: topology.PID(i % 5), ASN: 1})
	}
	idx := sel.Select(self, cands, 8, rng)
	if len(idx) != 8 {
		t.Fatalf("outage selection returned %d peers, want 8", len(idx))
	}
	s := views.Stats()
	if s.Failures < 1 || s.StaleServes < 1 {
		t.Fatalf("outage not flagged in stats: %+v", s)
	}
}
