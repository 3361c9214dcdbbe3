package apptracker

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"p4p/internal/core"
	"p4p/internal/leaktest"
	"p4p/internal/portal"
	"p4p/internal/trace"
)

// batchingFetcher is a scriptedFetcher that also implements the
// optional BatchFetcher slice, recording batch calls.
type batchingFetcher struct {
	scriptedFetcher
	batchCalls atomic.Int64
	batchFn    func(pairs []portal.PIDPair) (*portal.BatchResult, error)
}

func (f *batchingFetcher) BatchDistancesContext(ctx context.Context, pairs []portal.PIDPair) (*portal.BatchResult, error) {
	f.batchCalls.Add(1)
	return f.batchFn(pairs)
}

// traced gives p a recording tracer for its view refreshes and returns
// a context carrying a root span of its own, ended at cleanup; the test
// then fails unless every span started under either root has ended.
func traced(t *testing.T, p *PortalViews) context.Context {
	p.Tracer = trace.NewTracer(trace.NewCollector(8, 0, 1))
	leaktest.Check(t, p.Tracer)
	ctx, root := p.Tracer.StartRoot(context.Background(), "test")
	t.Cleanup(root.End)
	return ctx
}

// TestBatchDistancesFromCachedView checks the steady-state path: when
// the held view covers every requested PID, batch queries are answered
// locally with zero portal traffic.
func TestBatchDistancesFromCachedView(t *testing.T) {
	f := &batchingFetcher{
		scriptedFetcher: scriptedFetcher{fn: func(n int64) (*core.View, error) { return testView(1), nil }},
		batchFn: func(pairs []portal.PIDPair) (*portal.BatchResult, error) {
			return nil, errors.New("injected: batch endpoint must not be hit")
		},
	}
	p := NewPortalViews(f, time.Minute)
	p.nowFn = newFakeClock().Now
	ctx := traced(t, p)

	got, err := p.BatchDistances(ctx, []portal.PIDPair{{Src: 0, Dst: 2}, {Src: 1, Dst: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 5 || got[1] != 0 {
		t.Fatalf("distances = %v, want [5 0]", got)
	}
	if n := f.batchCalls.Load(); n != 0 {
		t.Fatalf("batch endpoint hit %d times for a covered query", n)
	}
}

// TestBatchDistancesFallsBackToEndpoint checks the uncovered path: a
// PID absent from the held view routes the whole query to the portal's
// batch endpoint instead of panicking in View.Distance.
func TestBatchDistancesFallsBackToEndpoint(t *testing.T) {
	want := []float64{7, math.Inf(1)}
	f := &batchingFetcher{
		scriptedFetcher: scriptedFetcher{fn: func(n int64) (*core.View, error) { return testView(1), nil }},
		batchFn: func(pairs []portal.PIDPair) (*portal.BatchResult, error) {
			return &portal.BatchResult{Version: 1, Distances: want}, nil
		},
	}
	p := NewPortalViews(f, time.Minute)
	p.nowFn = newFakeClock().Now
	ctx := traced(t, p)

	// PID 9 is not in testView's {0,1,2}.
	got, err := p.BatchDistances(ctx, []portal.PIDPair{{Src: 0, Dst: 9}, {Src: 9, Dst: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 7 || !math.IsInf(got[1], 1) {
		t.Fatalf("distances = %v, want [7 +Inf]", got)
	}
	if n := f.batchCalls.Load(); n != 1 {
		t.Fatalf("batch endpoint hit %d times, want 1", n)
	}
}

// TestBatchDistancesNoSource checks the error contract: uncovered
// pairs with a client that has no batch support fail cleanly.
func TestBatchDistancesNoSource(t *testing.T) {
	f := &scriptedFetcher{fn: func(n int64) (*core.View, error) { return testView(1), nil }}
	p := NewPortalViews(f, time.Minute)
	p.nowFn = newFakeClock().Now
	ctx := traced(t, p)

	if _, err := p.BatchDistances(ctx, []portal.PIDPair{{Src: 0, Dst: 9}}); !errors.Is(err, errNoBatchSource) {
		t.Fatalf("err = %v, want errNoBatchSource", err)
	}
	// Empty queries succeed trivially regardless of sources.
	got, err := p.BatchDistances(ctx, nil)
	if err != nil || got != nil {
		t.Fatalf("empty batch = (%v, %v), want (nil, nil)", got, err)
	}
}
