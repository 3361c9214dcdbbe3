package portal

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"p4p/internal/core"
	"p4p/internal/itracker"
	"p4p/internal/leaktest"
	"p4p/internal/topology"
	"p4p/internal/trace"
)

// The EntryCache contract tests that need a view no source serves: one
// that fails, panics, or is held mid-render. The behaviours a source
// can show are driven through both sources in sources_test.go.

func testEntryCache() *EntryCache[int] {
	return NewEntryCache(func(key int, form string) string { return fmt.Sprintf("v%d-%s", key, form) })
}

func keyedView(key int) func(context.Context) (int, *core.View, error) {
	return func(context.Context) (int, *core.View, error) {
		return key, &core.View{Version: key, PIDs: []topology.PID{0}, D: [][]float64{{0}}}, nil
	}
}

// awaitDone fails the test unless done closes within five seconds (a
// watchdog bound, not a pacing sleep).
func awaitDone(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: timed out", what)
	}
}

// reachedCtx closes reached on the first Value lookup. A waiter's first
// lookup is the encode_wait span's StartSpan, made after it has
// committed to waiting, so reached means "the waiter is parked".
type reachedCtx struct {
	context.Context
	once    sync.Once
	reached chan struct{}
}

func (c *reachedCtx) Value(key any) any {
	c.once.Do(func() { close(c.reached) })
	return c.Context.Value(key)
}

func parked(ctx context.Context) *reachedCtx {
	return &reachedCtx{Context: ctx, reached: make(chan struct{})}
}

// TestEntryCacheErrorsNotCached checks the failure contract: a view or
// encode error reaches the caller, and the next caller renders again.
func TestEntryCacheErrorsNotCached(t *testing.T) {
	c := testEntryCache()
	boom := errors.New("transient view failure")
	nan := &core.View{Version: 1, PIDs: []topology.PID{0}, D: [][]float64{{math.NaN()}}}
	calls := 0
	for i, fail := range []func(context.Context) (int, *core.View, error){
		func(context.Context) (int, *core.View, error) { calls++; return 0, nil, boom },
		func(context.Context) (int, *core.View, error) { calls++; return 1, nan, nil },
	} {
		if _, err := c.Get(context.Background(), "raw", 1, nil, fail); err == nil || i == 0 && !errors.Is(err, boom) {
			t.Fatalf("failure %d: err = %v", i, err)
		}
	}
	ent, err := c.Get(context.Background(), "raw", 1, nil, keyedView(1))
	if err != nil || ent.Version != 1 {
		t.Fatalf("after two failures: entry %v, err %v (was an error cached?)", ent, err)
	}
	if calls != 2 {
		t.Fatalf("failing view called %d times, want 2", calls)
	}
}

// TestEntryCacheKeysByRenderedView: a request for key 1 whose view is
// already at key 2 (a price update raced it) gets key 2's entry, under
// key 2's ETag, and that is the key it is cached under.
func TestEntryCacheKeysByRenderedView(t *testing.T) {
	c := testEntryCache()
	ent, err := c.Get(context.Background(), "raw", 1, nil, keyedView(2))
	if err != nil || ent.Version != 2 || ent.ETag != `"v2-raw"` {
		t.Fatalf("entry %+v, err %v; want version 2 under \"v2-raw\"", ent, err)
	}
	unused := func(context.Context) (int, *core.View, error) { return 0, nil, errors.New("rendered again") }
	if again, err := c.Get(context.Background(), "raw", 2, nil, unused); err != nil || again != ent {
		t.Fatalf("key 2 after rendering it: entry %+v, err %v; want the cached one", again, err)
	}
}

// TestEntryCachePanicReleasesWaiters pins the deferred release: callers
// parked on a render that panics are released and render for
// themselves, and the form is not wedged for later callers.
func TestEntryCachePanicReleasesWaiters(t *testing.T) {
	c := testEntryCache()
	entered, release := make(chan struct{}), make(chan struct{})
	panicked := make(chan struct{})
	go func() {
		defer close(panicked)
		defer func() { recover() }()
		c.Get(context.Background(), "raw", 1, nil, func(context.Context) (int, *core.View, error) {
			close(entered)
			<-release
			panic("injected encode failure")
		})
	}()
	awaitDone(t, entered, "render start")
	const waiters = 4
	results := make(chan error, waiters)
	for range waiters {
		ctx := parked(context.Background())
		go func() {
			_, err := c.Get(ctx, "raw", 1, nil, keyedView(1))
			results <- err
		}()
		awaitDone(t, ctx.reached, "waiter parked")
	}
	close(release)
	awaitDone(t, panicked, "panicking render")
	for range waiters {
		select {
		case err := <-results:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("waiter wedged after a panicking render")
		}
	}
	if ent, err := c.Get(context.Background(), "raw", 1, nil, keyedView(1)); err != nil || ent.Version != 1 {
		t.Fatalf("after the panic: entry %v, err %v", ent, err)
	}
}

// TestEntryCacheWaiterGetsItsKey parks a caller for key 2 behind a render
// of key 1: when that render publishes, the waiter must render key 2
// itself, not return the previous version.
func TestEntryCacheWaiterGetsItsKey(t *testing.T) {
	c := testEntryCache()
	entered, release := make(chan struct{}), make(chan struct{})
	payer := make(chan *Entry, 1)
	go func() {
		ent, _ := c.Get(context.Background(), "bin", 1, nil, func(ctx context.Context) (int, *core.View, error) {
			close(entered)
			<-release
			return keyedView(1)(ctx)
		})
		payer <- ent
	}()
	awaitDone(t, entered, "render start")
	ctx := parked(context.Background())
	waiter := make(chan *Entry, 1)
	go func() {
		ent, err := c.Get(ctx, "bin", 2, nil, keyedView(2))
		if err != nil {
			t.Error(err)
		}
		waiter <- ent
	}()
	awaitDone(t, ctx.reached, "waiter parked")
	close(release)
	if got := <-payer; got.Version != 1 {
		t.Errorf("payer got version %d, want 1", got.Version)
	}
	if got := <-waiter; got == nil || got.Version != 2 {
		t.Fatalf("waiter for key 2 got %+v", got)
	}
}

// TestTracedCoalescedRender parks a traced caller on a form's render
// while another traced caller pays for it: the payer records encode
// (with its form) over the iTracker's recompute, the waiter encode_wait,
// and every span ends before its root.
func TestTracedCoalescedRender(t *testing.T) {
	g := topology.Abilene()
	tr := itracker.New(itracker.Config{Name: "traced", ASN: 1},
		core.NewEngine(g, topology.ComputeRouting(g), core.Config{}), nil)
	c := testEntryCache()
	tracer := trace.NewTracer(nil)
	leaktest.Check(t, tracer)
	col := trace.NewCollector(8, 0, 1)
	tracer.Collector = col
	entered, release := make(chan struct{}), make(chan struct{})
	view := func(ctx context.Context) (int, *core.View, error) {
		close(entered)
		<-release
		v, err := tr.DistancesCtx(ctx, "")
		if err != nil {
			return 0, nil, err
		}
		return v.Version, v, nil
	}
	errs := make(chan error, 2)
	run := func(ctx context.Context, root *trace.Span) {
		_, err := c.Get(ctx, FormBinary, tr.Engine().Version(), nil, view)
		root.End()
		errs <- err
	}
	ctx, root := tracer.StartRoot(context.Background(), "payer")
	go run(ctx, root)
	awaitDone(t, entered, "render start")
	ctx, root = tracer.StartRoot(context.Background(), "waiter")
	waiter := parked(ctx)
	go run(waiter, root)
	awaitDone(t, waiter.reached, "waiter parked")
	close(release)
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	names := map[string][]string{}
	for _, kept := range col.Snapshot().Traces {
		for _, s := range kept.Spans {
			names[kept.Spans[0].Name] = append(names[kept.Spans[0].Name], s.Name)
			if s.Name == "encode" && !slices.Contains(s.Attrs, trace.Attr{Key: "form", Value: FormBinary}) {
				t.Errorf("encode span attributes %v, want form=%s", s.Attrs, FormBinary)
			}
		}
	}
	for _, want := range [][]string{{"payer", "encode", "recompute"}, {"waiter", "encode_wait"}} {
		if got := names[want[0]]; !slices.Equal(got, want) {
			t.Errorf("%s trace spans = %v, want %v", want[0], got, want)
		}
	}
}
