package apptracker

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p4p/internal/core"
	"p4p/internal/federation"
	"p4p/internal/leaktest"
	"p4p/internal/portal"
	"p4p/internal/telemetry"
	"p4p/internal/topology"
)

func mviewEast(version int) *core.View {
	return &core.View{Version: version, PIDs: []topology.PID{0, 1}, D: [][]float64{{0, 2}, {2, 0}}}
}

func mviewWest(version int) *core.View {
	return &core.View{Version: version, PIDs: []topology.PID{10, 11}, D: [][]float64{{0, 4}, {4, 0}}}
}

// newTestMulti wires a MultiPortalViews over scripted fetchers and a
// fake clock, bypassing real HTTP. Scripted fetchers carry no validator,
// so the union tells their views apart by version alone.
func newTestMulti(t *testing.T, fetchers ...*scriptedFetcher) (*MultiPortalViews, *fakeClock) {
	t.Helper()
	refs := []PortalRef{{Name: "east", URL: "http://east.test"}, {Name: "west", URL: "http://west.test"}}
	mpv := NewMultiPortalViews(portal.NewClient("http://unused.test", ""), refs[:len(fetchers)],
		[]federation.Circuit{{A: "east", APID: 1, B: "west", BPID: 10, Cost: 7}}, 30*time.Second)
	clk := newFakeClock()
	mpv.tm.Now = clk.Now
	for i, f := range fetchers {
		mpv.fetchers[i] = f
	}
	return mpv, clk
}

func TestMultiPortalViewsMergesAcrossPortals(t *testing.T) {
	east := &scriptedFetcher{fn: func(int64) (*core.View, error) { return mviewEast(1), nil }}
	west := &scriptedFetcher{fn: func(int64) (*core.View, error) { return mviewWest(1), nil }}
	mpv, _ := newTestMulti(t, east, west)

	dv := mpv.ViewFor(0)
	if dv == nil {
		t.Fatal("ViewFor = nil with both portals healthy")
	}
	v := dv
	if got := v.Distance(0, 11); got != 2+7+4 {
		t.Errorf("cross-provider d(0,11) = %v, want 13", got)
	}
	if got := v.Distance(0, 1); got != 2 {
		t.Errorf("intradomain d(0,1) = %v, want 2", got)
	}

	// Steady state: inside the merged TTL repeated calls return the same
	// *core.View without refetching or remerging.
	dv2 := mpv.ViewFor(0)
	if dv2 != v {
		t.Error("merged view not cached across calls with unchanged inputs")
	}
	if east.calls.Load() != 1 || west.calls.Load() != 1 {
		t.Errorf("fetch counts = %d/%d, want 1/1 inside the TTL",
			east.calls.Load(), west.calls.Load())
	}
}

func TestMultiPortalViewsDegradesPerPortal(t *testing.T) {
	westUp := true
	east := &scriptedFetcher{fn: func(int64) (*core.View, error) { return mviewEast(1), nil }}
	west := &scriptedFetcher{fn: func(int64) (*core.View, error) {
		if !westUp {
			return nil, errors.New("portal down")
		}
		return mviewWest(1), nil
	}}
	mpv, clk := newTestMulti(t, east, west)

	// Healthy first: both shards in the union.
	v := mpv.ViewFor(0)
	if _, ok := v.Index(10); !ok {
		t.Fatal("west PIDs missing from healthy merge")
	}

	// West dies and the merged window expires: its last-known-good view
	// keeps the union whole while stats attribute the staleness to west
	// alone. A dead portal is retried when the merged window next
	// expires, not after FailureBackoff (staleness <= TTL + backoff).
	westUp = false
	clk.Advance(31 * time.Second)
	v2 := mpv.ViewFor(0)
	if v2 == nil {
		t.Fatal("ViewFor = nil with east healthy and west on last-known-good")
	}
	if _, ok := v2.Index(10); !ok {
		t.Error("west's last-known-good view dropped from the merge")
	}
	st := mpv.Stats()
	if st["west"].Failures != 1 || st["west"].StaleServes != 1 {
		t.Errorf("west stats = %+v, want one failure and one stale serve (StaleServes counts merge passes)", st["west"])
	}
	for i := 0; i < 3; i++ {
		mpv.ViewFor(0) // selections inside the merged window touch no portal
	}
	if got := mpv.Stats()["west"]; got != st["west"] {
		t.Errorf("west stats moved without a merge pass: %+v -> %+v", st["west"], got)
	}
	clk.Advance(6 * time.Second) // past west's failure backoff, inside the merged TTL
	mpv.ViewFor(0)
	if n := west.calls.Load(); n != 2 {
		t.Errorf("west fetched %d times, want 2: a dead portal waits for the merged window", n)
	}
	clk.Advance(25 * time.Second) // merged window over
	mpv.ViewFor(0)
	if n := west.calls.Load(); n != 3 {
		t.Errorf("west fetched %d times, want 3 once the merged window expired", n)
	}
	if st["east"].Failures != 0 {
		t.Errorf("east wrongly charged with failures: %+v", st["east"])
	}

	// Degraded readiness: east refreshed just now and counts as fresh;
	// west only holds a last-known-good view, so any freshness bound
	// excludes it — exactly the "1/2 portal views fresh" split /readyz
	// reports.
	if ok, detail := mpv.Ready(time.Minute); !ok || !strings.HasPrefix(detail, "1/2 ") {
		t.Errorf("Ready = %v %q, want ready at 1/2", ok, detail)
	}
	clk.Advance(2 * time.Minute)
	if ok, detail := mpv.Ready(time.Minute); ok || !strings.HasPrefix(detail, "0/2 ") {
		t.Errorf("Ready after aging = %v %q, want not ready at 0/2", ok, detail)
	}
}

// TestMultiPortalViewsAnsweredDuringRefresh pins the union's read path
// against a lock held across a portal fetch: while one caller's refresh
// is parked inside east's fetch, another ViewFor is answered from the
// previous merged view.
func TestMultiPortalViewsAnsweredDuringRefresh(t *testing.T) {
	block := make(chan struct{})
	started := make(chan int64, 2) // the priming fetch and the parked one
	east := &scriptedFetcher{started: started, fn: func(n int64) (*core.View, error) {
		if n > 1 {
			<-block
		}
		return mviewEast(int(n)), nil
	}}
	west := &scriptedFetcher{fn: func(n int64) (*core.View, error) { return mviewWest(int(n)), nil }}
	mpv, clk := newTestMulti(t, east, west)
	prev := mpv.ViewFor(0)
	awaitCall(t, started, 1)
	clk.Advance(31 * time.Second)

	refreshed := make(chan DistanceView, 1)
	go func() { refreshed <- mpv.ViewFor(0) }()
	awaitCall(t, started, 2)
	done := make(chan DistanceView, 1)
	go func() { done <- mpv.ViewFor(0) }()
	select {
	case v := <-done:
		if v != prev {
			t.Error("a read during the refresh was not answered from the previous merged view")
		}
	case <-time.After(2 * time.Second):
		t.Error("ViewFor blocked behind an in-flight portal fetch")
	}
	close(block)
	if v := <-refreshed; v == nil || v == prev {
		t.Errorf("the refreshing caller got %p, want a new merged view (previous %p)", v, prev)
	}
}

func TestMultiPortalViewsAllPortalsDownReturnsNil(t *testing.T) {
	down := func(int64) (*core.View, error) { return nil, errors.New("down") }
	mpv, _ := newTestMulti(t, &scriptedFetcher{fn: down}, &scriptedFetcher{fn: down})
	// Must be nil so the selector's `view == nil` degradation branch
	// fires.
	if dv := mpv.ViewFor(0); dv != nil {
		t.Fatalf("ViewFor = %#v, want nil", dv)
	}
}

// errorLines is a slog handler counting Error records.
type errorLines struct{ n atomic.Int64 }

func (h *errorLines) Enabled(context.Context, slog.Level) bool { return true }
func (h *errorLines) Handle(_ context.Context, r slog.Record) error {
	if r.Level >= slog.LevelError {
		h.n.Add(1)
	}
	return nil
}
func (h *errorLines) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *errorLines) WithGroup(string) slog.Handler      { return h }

func TestMultiPortalViewsMergeConflictDegrades(t *testing.T) {
	// Two portals claiming PID 0 is a deployment misconfiguration: the
	// merge fails and selection degrades to native peering rather than
	// serving a known-wrong matrix.
	east := &scriptedFetcher{fn: func(int64) (*core.View, error) { return mviewEast(1), nil }}
	eastToo := &scriptedFetcher{fn: func(int64) (*core.View, error) { return mviewEast(9), nil }}
	mpv, clk := newTestMulti(t, east, eastToo)
	errs := &errorLines{}
	mpv.Logger = slog.New(errs)
	if dv := mpv.ViewFor(0); dv != nil {
		t.Fatalf("ViewFor = %#v, want nil on merge conflict", dv)
	}
	// The failure is a failed refresh like any other: it backs off, so
	// the next selection neither re-runs Merge nor logs again.
	if dv := mpv.ViewFor(0); dv != nil {
		t.Fatal("conflict produced a view on the second call")
	}
	if n := errs.n.Load(); n != 1 {
		t.Errorf("%d merge failures logged across two calls inside one backoff window, want 1", n)
	}
	clk.Advance(6 * time.Second) // past the 5 s default failure backoff
	mpv.ViewFor(0)
	if n := errs.n.Load(); n != 2 {
		t.Errorf("%d merge failures logged after the backoff expired, want 2", n)
	}
}

func TestMultiPortalViewsRecomposesOnRefresh(t *testing.T) {
	east := &scriptedFetcher{fn: func(int64) (*core.View, error) { return mviewEast(1), nil }}
	west := &scriptedFetcher{fn: func(n int64) (*core.View, error) {
		v := mviewWest(int(n))
		v.D[0][1] = float64(10 * n)
		v.D[1][0] = float64(10 * n)
		return v, nil
	}}
	mpv, _ := newTestMulti(t, east, west)
	v1 := mpv.ViewFor(0)
	if got := v1.Distance(10, 11); got != 10 {
		t.Fatalf("d(10,11) = %v, want 10", got)
	}
	mpv.Invalidate()
	v2 := mpv.ViewFor(0)
	if v2 == v1 {
		t.Fatal("merge not recomposed after west delivered a new view")
	}
	if got := v2.Distance(10, 11); got != 20 {
		t.Errorf("d(10,11) = %v after refresh, want 20", got)
	}
	if got := v2.Distance(0, 10); got != 2+7 {
		t.Errorf("cross pair lost after recompose: d(0,10) = %v", got)
	}
}

// TestMultiPortalViewForSteadyStateAllocs pins what a selection pays for
// the multi-portal view inside the merged window: the merged cell's
// atomic load and a clock read — no allocation, no goroutine. It used to
// be a slice, a WaitGroup and one goroutine per portal on every call.
func TestMultiPortalViewForSteadyStateAllocs(t *testing.T) {
	east := &scriptedFetcher{fn: func(int64) (*core.View, error) { return mviewEast(1), nil }}
	west := &scriptedFetcher{fn: func(int64) (*core.View, error) { return mviewWest(1), nil }}
	mpv, _ := newTestMulti(t, east, west)
	want := mpv.ViewFor(0) // prime the merge
	leaktest.Check(t)
	allocs := testing.AllocsPerRun(500, func() {
		if mpv.ViewFor(0) != want {
			t.Fatal("held view changed inside the merged window")
		}
	})
	if allocs != 0 {
		t.Errorf("held-view ViewFor: %.1f allocs/op, want 0", allocs)
	}
}

func TestMultiPortalViewsPerPortalMetrics(t *testing.T) {
	east := &scriptedFetcher{fn: func(int64) (*core.View, error) { return mviewEast(1), nil }}
	west := &scriptedFetcher{fn: func(int64) (*core.View, error) { return nil, errors.New("down") }}
	mpv, _ := newTestMulti(t, east, west)
	reg := telemetry.NewRegistry()
	mpv.SetMetrics(NewViewMetrics(reg))
	mpv.ViewFor(0)

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, req)
	expo, _ := io.ReadAll(rec.Result().Body)
	for _, want := range []string{
		`p4p_apptracker_view_refreshes_total{portal="east"} 1`,
		`p4p_apptracker_view_refresh_failures_total{portal="west"} 1`,
	} {
		if !strings.Contains(string(expo), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The aggregate portal="" series from NewViewMetrics stays
	// registered (single-portal trackers keep their dashboards).
	if !strings.Contains(string(expo), `portal=""`) {
		t.Error(`exposition missing the default portal="" series`)
	}
}

// TestMultiPortalViewsKeyIsInjective is federation's
// TestUnionKeyIsInjective through this owner: portal ETags that ran
// together in a raw "name=validator#version;" key must not let a
// refresh pass republish the previous merge over changed portals.
func TestMultiPortalViewsKeyIsInjective(t *testing.T) {
	type state struct {
		etag string
		view *core.View
	}
	var mu sync.Mutex
	states := map[string]state{}
	refs := make([]PortalRef, 2)
	for i, name := range []string{"a", "b"} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			st := states[name]
			mu.Unlock()
			w.Header().Set("ETag", st.etag)
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(portal.ToWire(st.view))
		}))
		t.Cleanup(srv.Close)
		refs[i] = PortalRef{Name: name, URL: srv.URL}
	}
	mpv := NewMultiPortalViews(portal.NewClient("", ""), refs, nil, time.Hour)
	one := func(version int, pid topology.PID) *core.View {
		return &core.View{Version: version, PIDs: []topology.PID{pid}, D: [][]float64{{0}}}
	}
	for _, st := range []struct {
		a, b state
		want []topology.PID
	}{
		{state{"x", one(1, 1)}, state{"y#2;b=z", one(3, 2)}, []topology.PID{1, 2}},
		{state{"x#1;b=y", one(2, 5)}, state{"z", one(3, 6)}, []topology.PID{5, 6}},
	} {
		mu.Lock()
		states["a"], states["b"] = st.a, st.b
		mu.Unlock()
		mpv.Invalidate()
		v := mpv.ViewFor(0)
		if v == nil {
			t.Fatal("no merged view")
		}
		if got := v.PIDs; !slices.Equal(got, st.want) {
			t.Errorf("ETags %q, %q: merged PIDs %v, want %v", st.a.etag, st.b.etag, got, st.want)
		}
	}
}
