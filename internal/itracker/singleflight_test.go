package itracker

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p4p/internal/core"
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

// encodeJSONView is the EncodeFunc the EncodedView tests share.
func encodeJSONView(v *core.View) ([]byte, error) {
	return json.Marshal(struct {
		Version int `json:"version"`
		PIDs    int `json:"pids"`
	}{v.Version, len(v.PIDs)})
}

// TestEncodedViewCachesBytes checks the byte cache contract: repeated
// calls at one version return the identical slice without re-encoding,
// and a version bump invalidates it.
func TestEncodedViewCachesBytes(t *testing.T) {
	tr, g := testTracker(Config{Name: "enc", ASN: 1})
	var encodes atomic.Int64
	enc := func(v *core.View) ([]byte, error) {
		encodes.Add(1)
		return encodeJSONView(v)
	}

	b1, ver1, err := tr.EncodedViewCtx(context.Background(), "", "raw", enc)
	if err != nil {
		t.Fatal(err)
	}
	b2, ver2, err := tr.EncodedViewCtx(context.Background(), "", "raw", enc)
	if err != nil {
		t.Fatal(err)
	}
	if &b1[0] != &b2[0] || ver1 != ver2 {
		t.Fatal("second call did not return the cached bytes")
	}
	if n := encodes.Load(); n != 1 {
		t.Fatalf("encodes = %d, want 1", n)
	}

	// Forms are cached independently.
	if _, _, err := tr.EncodedViewCtx(context.Background(), "", "ranks", enc); err != nil {
		t.Fatal(err)
	}
	if n := encodes.Load(); n != 2 {
		t.Fatalf("encodes after second form = %d, want 2", n)
	}

	tr.ObserveAndUpdate(make([]float64, g.NumLinks()))
	b3, ver3, err := tr.EncodedViewCtx(context.Background(), "", "raw", enc)
	if err != nil {
		t.Fatal(err)
	}
	if ver3 == ver1 {
		t.Fatal("version did not advance after update")
	}
	if &b3[0] == &b1[0] {
		t.Fatal("version bump did not invalidate the byte cache")
	}
	if n := encodes.Load(); n != 3 {
		t.Fatalf("encodes after bump = %d, want 3", n)
	}
}

// TestEncodedViewSingleflight races many callers at a cold cache: the
// encoder must run exactly once and everyone must get the same bytes.
func TestEncodedViewSingleflight(t *testing.T) {
	tr, g := testTracker(Config{Name: "enc-sf", ASN: 1})
	var encodes atomic.Int64
	enc := func(v *core.View) ([]byte, error) {
		encodes.Add(1)
		return encodeJSONView(v)
	}
	const rounds, workers = 5, 32
	for r := 0; r < rounds; r++ {
		tr.ObserveAndUpdate(make([]float64, g.NumLinks()))
		var wg sync.WaitGroup
		bodies := make([][]byte, workers)
		errs := make([]error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				bodies[w], _, errs[w] = tr.EncodedViewCtx(context.Background(), "", "raw", enc)
			}(w)
		}
		wg.Wait()
		for w := 0; w < workers; w++ {
			if errs[w] != nil {
				t.Fatal(errs[w])
			}
			if &bodies[w][0] != &bodies[0][0] {
				t.Fatal("concurrent callers got different encoded bodies")
			}
		}
	}
	if n := encodes.Load(); n != rounds {
		t.Fatalf("encodes = %d, want %d (one per version bump)", n, rounds)
	}
}

// TestEncodedViewErrors checks the failure contract: access control is
// enforced before any work, and encode errors are surfaced but never
// cached — the next caller retries the encoder.
func TestEncodedViewErrors(t *testing.T) {
	tr, _ := testTracker(Config{Name: "enc-err", ASN: 1, TrustedTokens: []string{"tok"}})
	if _, _, err := tr.EncodedViewCtx(context.Background(), "wrong", "raw", encodeJSONView); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("err = %v, want ErrAccessDenied", err)
	}

	boom := errors.New("transient encode failure")
	calls := 0
	enc := func(v *core.View) ([]byte, error) {
		calls++
		if calls == 1 {
			return nil, boom
		}
		return encodeJSONView(v)
	}
	if _, _, err := tr.EncodedViewCtx(context.Background(), "tok", "raw", enc); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected encode failure", err)
	}
	if _, _, err := tr.EncodedViewCtx(context.Background(), "tok", "raw", enc); err != nil {
		t.Fatalf("retry after encode failure: %v (error was cached?)", err)
	}
	if calls != 2 {
		t.Fatalf("encoder calls = %d, want 2", calls)
	}
}

// TestEncodedViewPanicReleasesSingleflight mirrors the Distances panic
// regression for the per-form encode singleflight: a panicking encoder
// must not strand encInflight.
func TestEncodedViewPanicReleasesSingleflight(t *testing.T) {
	tr, _ := testTracker(Config{Name: "enc-panic", ASN: 1})
	first := true
	enc := func(v *core.View) ([]byte, error) {
		if first {
			first = false
			panic("injected encode failure")
		}
		return encodeJSONView(v)
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("encoding caller did not observe the panic")
			}
		}()
		tr.EncodedViewCtx(context.Background(), "", "raw", enc)
	}()

	tr.mu.Lock()
	leaked := tr.encInflight["raw"] != nil
	tr.mu.Unlock()
	if leaked {
		t.Fatal("encInflight marker still set after panic")
	}

	done := make(chan error, 1)
	go func() {
		_, _, err := tr.EncodedViewCtx(context.Background(), "", "raw", enc)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("EncodedView wedged after a panicking encode")
	}
}

// TestEncodedViewCountsQueries checks cache hits are accounted as
// distance queries, matching the Distances bookkeeping.
func TestEncodedViewCountsQueries(t *testing.T) {
	tr, _ := testTracker(Config{Name: "enc-count", ASN: 1})
	for i := 0; i < 3; i++ {
		if _, _, err := tr.EncodedViewCtx(context.Background(), "", "raw", encodeJSONView); err != nil {
			t.Fatal(err)
		}
	}
	// The miss routes through Distances (1 query); the two hits add one
	// each.
	if q, _ := tr.Stats(); q != 3 {
		t.Fatalf("queries = %d, want 3", q)
	}
}

// TestEncodedViewBodyMatchesVersion cross-checks the returned version
// against the encoded payload under concurrent version bumps.
func TestEncodedViewBodyMatchesVersion(t *testing.T) {
	tr, g := testTracker(Config{Name: "enc-ver", ASN: 1})
	loads := make([]float64, g.NumLinks())
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			tr.ObserveAndUpdate(loads)
		}
		close(stop)
	}()
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				body, ver, err := tr.EncodedViewCtx(context.Background(), "", "raw", encodeJSONView)
				if err != nil {
					t.Errorf("EncodedView: %v", err)
					return
				}
				var wire struct {
					Version int `json:"version"`
				}
				if err := json.Unmarshal(body, &wire); err != nil {
					t.Errorf("cached body not valid JSON: %v", err)
					return
				}
				if wire.Version != ver {
					t.Errorf("body version %d != returned version %d", wire.Version, ver)
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.Fatal(fmt.Errorf("torn version/body pairing under concurrent updates"))
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

// TestTracedCoalescedWaiter parks a traced caller on each singleflight
// while another traced caller pays for it: the payer records recompute
// (and encode), the waiter singleflight_wait (or encode_wait), and every
// span ends before its root.
func TestTracedCoalescedWaiter(t *testing.T) {
	tr, g := testTracker(Config{Name: "traced", ASN: 1})
	tracer := trace.NewTracer(nil)
	leaktest.Check(t, tracer)
	for _, tc := range []struct {
		call        func(context.Context) error
		payer, wait []string
	}{
		{func(ctx context.Context) error { _, err := tr.DistancesCtx(ctx, ""); return err },
			[]string{"payer", "recompute"}, []string{"waiter", "singleflight_wait"}},
		{func(ctx context.Context) error {
			_, _, err := tr.EncodedViewCtx(ctx, "", "raw", encodeJSONView)
			return err
		},
			[]string{"payer", "encode", "recompute"}, []string{"waiter", "encode_wait"}},
	} {
		tr.ObserveAndUpdate(make([]float64, g.NumLinks())) // a cold cache for the payer
		col := trace.NewCollector(8, 0, 1)
		tracer.Collector = col
		entered, release := make(chan struct{}), make(chan struct{})
		tr.testHookPreMatrix = func() { close(entered); <-release }
		errs := make(chan error, 2)
		run := func(ctx context.Context, root *trace.Span) {
			err := tc.call(ctx)
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
		for _, want := range [][]string{tc.payer, tc.wait} {
			if got := names[want[0]]; !slices.Equal(got, want) {
				t.Errorf("%s trace spans = %v, want %v", want[0], got, want)
			}
		}
	}
}
