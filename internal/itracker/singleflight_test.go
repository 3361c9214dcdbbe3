package itracker

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p4p/internal/leaktest"
	"p4p/internal/trace"
)

// TestDistancesPanicReleasesSingleflight is the regression test for the
// singleflight leak: a panic during materialization used to leave
// t.inflight set and the done channel unclosed, wedging every future
// Distances call forever. The cleanup now runs under defer, so the
// panicking caller sees the panic and everyone else just retries.
func TestDistancesPanicReleasesSingleflight(t *testing.T) {
	tr, _ := testTracker(Config{Name: "panic", ASN: 1})
	tr.testHookPreMatrix = func() { panic("injected matrix failure") }

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("materializing caller did not observe the panic")
			}
		}()
		tr.Distances("")
	}()

	tr.mu.Lock()
	leaked := tr.inflight != nil
	tr.mu.Unlock()
	if leaked {
		t.Fatal("inflight marker still set after panic")
	}

	// A later caller must succeed, not block on a never-closed channel.
	tr.testHookPreMatrix = nil
	done := make(chan error, 1)
	go func() {
		_, err := tr.Distances("")
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Distances wedged after a panicking recompute")
	}
}

// TestDistancesPanicReleasesWaiters pins the concurrent shape of the
// same bug: callers already parked on the in-flight channel when the
// materializer panics must be released and then succeed via retry.
func TestDistancesPanicReleasesWaiters(t *testing.T) {
	tr, _ := testTracker(Config{Name: "panic-waiters", ASN: 1})
	entered := make(chan struct{})
	release := make(chan struct{})
	var fired atomic.Bool
	tr.testHookPreMatrix = func() {
		if fired.CompareAndSwap(false, true) {
			close(entered)
			<-release
			panic("injected matrix failure")
		}
	}

	go func() {
		defer func() { recover() }()
		tr.Distances("")
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("materializer never started")
	}

	const waiters = 8
	results := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			_, err := tr.Distances("")
			results <- err
		}()
	}
	close(release) // let the materializer panic with waiters parked
	for i := 0; i < waiters; i++ {
		select {
		case err := <-results:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("waiter wedged after the materializer panicked")
		}
	}
}

// reachedCtx closes reached on the first Value lookup. A coalescing
// caller's first lookup is the wait span's StartSpan, made after it has
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

// TestTracedCoalescedWaiter parks a traced caller on the view
// singleflight while another traced caller pays for it: the payer
// records recompute, the waiter singleflight_wait, and every span ends
// before its root.
func TestTracedCoalescedWaiter(t *testing.T) {
	tr, g := testTracker(Config{Name: "traced", ASN: 1})
	tracer := trace.NewTracer(nil)
	leaktest.Check(t, tracer)
	tr.ObserveAndUpdate(make([]float64, g.NumLinks())) // a cold cache for the payer
	col := trace.NewCollector(8, 0, 1)
	tracer.Collector = col
	entered, release := make(chan struct{}), make(chan struct{})
	tr.testHookPreMatrix = func() { close(entered); <-release }
	errs := make(chan error, 2)
	run := func(ctx context.Context, root *trace.Span) {
		_, err := tr.DistancesCtx(ctx, "")
		root.End()
		errs <- err
	}
	ctx, root := tracer.StartRoot(context.Background(), "payer")
	go run(ctx, root)
	<-entered
	ctx, root = tracer.StartRoot(context.Background(), "waiter")
	waiter := &reachedCtx{Context: ctx, reached: make(chan struct{})}
	go run(waiter, root)
	<-waiter.reached
	close(release)
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	tr.testHookPreMatrix = nil

	names := map[string][]string{}
	for _, kept := range col.Snapshot().Traces {
		for _, s := range kept.Spans {
			names[kept.Spans[0].Name] = append(names[kept.Spans[0].Name], s.Name)
		}
	}
	for _, want := range [][]string{{"payer", "recompute"}, {"waiter", "singleflight_wait"}} {
		if got := names[want[0]]; !slices.Equal(got, want) {
			t.Errorf("%s trace spans = %v, want %v", want[0], got, want)
		}
	}
}
