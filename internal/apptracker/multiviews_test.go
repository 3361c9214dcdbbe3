package apptracker

import (
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"p4p/internal/core"
	"p4p/internal/federation"
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

// newTestMulti wires a MultiPortalViews over scripted fetchers and one
// shared fake clock, bypassing real HTTP.
func newTestMulti(t *testing.T, fetchers ...*scriptedFetcher) (*MultiPortalViews, *fakeClock) {
	t.Helper()
	refs := []PortalRef{{Name: "east", URL: "http://east.test"}, {Name: "west", URL: "http://west.test"}}
	if len(fetchers) == 3 {
		refs = append(refs, PortalRef{Name: "south", URL: "http://south.test"})
	}
	mpv := NewMultiPortalViews(portal.NewClient("http://unused.test", ""), refs[:len(fetchers)], 30*time.Second)
	clk := newFakeClock()
	for i, f := range fetchers {
		p := mpv.Portal(i)
		p.Client = f
		p.nowFn = clk.Now
	}
	mpv.SetCircuits([]federation.Circuit{{A: "east", APID: 1, B: "west", BPID: 10, Cost: 7}})
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

	// Steady state: the merge is cached by view identity — repeated
	// calls return the same *core.View without refetching or remerging.
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

	// West dies past TTL+backoff: its last-known-good view keeps the
	// union whole while stats attribute the staleness to west alone.
	westUp = false
	mpv.Invalidate()
	v2 := mpv.ViewFor(0)
	if v2 == nil {
		t.Fatal("ViewFor = nil with east healthy and west on last-known-good")
	}
	if _, ok := v2.Index(10); !ok {
		t.Error("west's last-known-good view dropped from the merge")
	}
	st := mpv.Stats()
	if st["west"].Failures == 0 {
		t.Errorf("west stats show no failures: %+v", st["west"])
	}
	if st["east"].Failures != 0 {
		t.Errorf("east wrongly charged with failures: %+v", st["east"])
	}

	// Degraded readiness: east refreshed just now and counts as fresh;
	// west only holds a last-known-good view, so any freshness bound
	// excludes it — exactly the "1/2 portal views fresh" split /readyz
	// reports.
	if serving, total := mpv.Ready(time.Minute); serving != 1 || total != 2 {
		t.Errorf("Ready = %d/%d, want 1/2", serving, total)
	}
	clk.Advance(2 * time.Minute)
	if serving, total := mpv.Ready(time.Minute); total != 2 || serving != 0 {
		t.Errorf("Ready after aging = %d/%d, want 0/2", serving, total)
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
	if _, err := mpv.BatchDistances(context.Background(), []portal.PIDPair{{Src: 0, Dst: 1}}); err == nil {
		t.Error("BatchDistances succeeded with no views")
	}
}

func TestMultiPortalViewsMergeConflictDegrades(t *testing.T) {
	// Two portals claiming PID 0 is a deployment misconfiguration: the
	// merge fails and selection degrades to native peering rather than
	// serving a known-wrong matrix.
	east := &scriptedFetcher{fn: func(int64) (*core.View, error) { return mviewEast(1), nil }}
	eastToo := &scriptedFetcher{fn: func(int64) (*core.View, error) { return mviewEast(9), nil }}
	mpv, _ := newTestMulti(t, east, eastToo)
	if dv := mpv.ViewFor(0); dv != nil {
		t.Fatalf("ViewFor = %#v, want nil on merge conflict", dv)
	}
	// The failure is cached like a success: no re-merge storm.
	if dv := mpv.ViewFor(0); dv != nil {
		t.Fatal("conflict result not cached")
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

func TestMultiPortalViewsCircuitChangeInvalidatesMerge(t *testing.T) {
	east := &scriptedFetcher{fn: func(int64) (*core.View, error) { return mviewEast(1), nil }}
	west := &scriptedFetcher{fn: func(int64) (*core.View, error) { return mviewWest(1), nil }}
	mpv, _ := newTestMulti(t, east, west)
	v1 := mpv.ViewFor(0)
	if got := v1.Distance(1, 10); got != 7 {
		t.Fatalf("d(1,10) = %v, want 7", got)
	}
	mpv.SetCircuits(nil)
	v2 := mpv.ViewFor(0)
	if got := v2.Distance(1, 10); !math.IsInf(got, 1) {
		t.Errorf("d(1,10) = %v after dropping circuits, want +Inf", got)
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
