package refresh

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"p4p/internal/leaktest"
)

type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// source is a scripted Fetch: each step installs what the next call
// does, and calls are counted so "must not fetch" is checkable.
type source struct {
	mu    sync.Mutex
	next  func(ctx context.Context) (int, error)
	calls int
}

func (s *source) fetch(ctx context.Context) (int, error) {
	s.mu.Lock()
	s.calls++
	next := s.next
	s.mu.Unlock()
	if next == nil {
		return 0, errors.New("unexpected fetch")
	}
	return next(ctx)
}

func (s *source) script(fn func(ctx context.Context) (int, error)) {
	s.mu.Lock()
	s.next = fn
	s.mu.Unlock()
}

func (s *source) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

func returns(v int) func(context.Context) (int, error) {
	return func(context.Context) (int, error) { return v, nil }
}

var errDown = errors.New("injected: source down")

func fails(context.Context) (int, error) { return 0, errDown }

func panics(context.Context) (int, error) { panic("injected: fetch panicked") }

// get runs one Get, converting a propagated fetch panic into a flag.
func get(c *Cell[int], tm Timing) (r Read[int], panicked bool) {
	defer func() { panicked = recover() != nil }()
	return c.Get(context.Background(), tm), false
}

const (
	ttl     = 30 * time.Second
	backoff = 5 * time.Second
)

// TestCellTransitions walks one cell through every transition of the
// state machine on a fake clock, checking the answer, the per-read
// counter delta, the cumulative stats and the fetch count after each
// step. Run with -race.
func TestCellTransitions(t *testing.T) {
	leaktest.Check(t)
	clk := &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
	tm := Timing{TTL: ttl, FailureBackoff: backoff, Now: clk.now}
	src := &source{}
	c := &Cell[int]{Fetch: src.fetch}

	steps := []struct {
		name       string
		advance    time.Duration
		invalidate bool
		// fetch is what the step's refresh does; nil means the step
		// must be answered without fetching.
		fetch func(context.Context) (int, error)
		// behindInflight runs the step's Get while another caller's
		// refresh (which will publish `fetch`'s value) is blocked.
		behindInflight bool
		want           Read[int]
		wantPanic      bool
		wantErr        error
	}{
		{name: "cold failure holds nothing", fetch: fails,
			want: Read[int]{Counted: Stats{Failures: 1, NilServes: 1}}, wantErr: errDown},
		{name: "cold backoff serves nothing without fetching",
			want: Read[int]{Counted: Stats{NilServes: 1}}, wantErr: errDown},
		{name: "cold fetch after backoff", advance: backoff, fetch: returns(1),
			want: Read[int]{Value: 1, Held: true, Fresh: true, Counted: Stats{Refreshes: 1}}},
		{name: "fresh hit", advance: ttl - time.Nanosecond,
			want: Read[int]{Value: 1, Held: true, Fresh: true}},
		{name: "TTL expiry refetches", advance: time.Nanosecond, fetch: returns(2),
			want: Read[int]{Value: 2, Held: true, Fresh: true, Counted: Stats{Refreshes: 1}}},
		{name: "failure serves last-known-good", advance: ttl, fetch: fails,
			want: Read[int]{Value: 2, Held: true, Counted: Stats{Failures: 1, StaleServes: 1}}, wantErr: errDown},
		{name: "inside backoff no fetch", advance: backoff - time.Nanosecond,
			want: Read[int]{Value: 2, Held: true, Counted: Stats{StaleServes: 1}}, wantErr: errDown},
		{name: "backoff expiry retries", advance: time.Nanosecond, fetch: returns(3),
			want: Read[int]{Value: 3, Held: true, Fresh: true, Counted: Stats{Refreshes: 1}}},
		{name: "coalesced read while in flight", advance: ttl, fetch: returns(4), behindInflight: true,
			want: Read[int]{Value: 3, Held: true, Counted: Stats{Coalesces: 1, StaleServes: 1}}},
		{name: "in-flight winner published", want: Read[int]{Value: 4, Held: true, Fresh: true}},
		{name: "invalidate refetches inside the TTL", invalidate: true, fetch: returns(5),
			want: Read[int]{Value: 5, Held: true, Fresh: true, Counted: Stats{Refreshes: 1}}},
		{name: "panicking fetch is a failure", advance: ttl, fetch: panics, wantPanic: true,
			wantErr: errFetchPanicked},
		{name: "backoff after panic", want: Read[int]{Value: 5, Held: true, Counted: Stats{StaleServes: 1}},
			wantErr: errFetchPanicked},
		{name: "healthy fetch after panic", advance: backoff, fetch: returns(6),
			want: Read[int]{Value: 6, Held: true, Fresh: true, Counted: Stats{Refreshes: 1}}},
		{name: "invalidate clears a failure backoff", advance: ttl, fetch: fails,
			want: Read[int]{Value: 6, Held: true, Counted: Stats{Failures: 1, StaleServes: 1}}, wantErr: errDown},
		{name: "refetch straight after invalidate", invalidate: true, fetch: returns(7),
			want: Read[int]{Value: 7, Held: true, Fresh: true, Counted: Stats{Refreshes: 1}}},
	}

	var wantStats Stats
	for _, st := range steps {
		clk.advance(st.advance)
		if st.invalidate {
			c.Invalidate()
			if s := c.Snapshot(tm); s.Fresh || !s.At.IsZero() || !s.Held {
				t.Fatalf("%s: after Invalidate state = %+v, want held, stamped zero", st.name, s)
			}
		}
		wantCalls := src.count()
		if st.fetch != nil {
			wantCalls++
		}
		var got Read[int]
		var panicked bool
		if st.behindInflight {
			started, release := make(chan struct{}), make(chan struct{})
			src.script(func(ctx context.Context) (int, error) {
				close(started)
				<-release
				return st.fetch(ctx)
			})
			winner := make(chan Read[int])
			go func() { winner <- c.Get(context.Background(), tm) }()
			<-started
			got, panicked = get(c, tm)
			close(release)
			w := <-winner
			wantStats.add(w.Counted)
			if !w.Fresh || w.Counted != (Stats{Refreshes: 1}) {
				t.Errorf("%s: winner = %+v, want a refresh", st.name, w)
			}
		} else {
			src.script(st.fetch)
			got, panicked = get(c, tm)
		}
		if panicked != st.wantPanic {
			t.Fatalf("%s: panicked = %v, want %v", st.name, panicked, st.wantPanic)
		}
		if panicked {
			// The panic unwound past Get's answer; the cell still booked it.
			got = Read[int]{Counted: Stats{Failures: 1, StaleServes: 1}}
		}
		if got.Wait != nil {
			t.Errorf("%s: Wait set although a value is held or nothing is in flight", st.name)
		}
		if got != st.want && !panicked {
			t.Errorf("%s: read = %+v, want %+v", st.name, got, st.want)
		}
		wantStats.add(got.Counted)
		s := c.Snapshot(tm)
		if s.Stats != wantStats {
			t.Errorf("%s: stats = %+v, want %+v", st.name, s.Stats, wantStats)
		}
		if !errors.Is(s.LastErr, st.wantErr) {
			t.Errorf("%s: LastErr = %v, want %v", st.name, s.LastErr, st.wantErr)
		}
		if n := src.count(); n != wantCalls {
			t.Errorf("%s: %d fetches so far, want %d", st.name, n, wantCalls)
		}
	}
}

// TestCellColdStartWait covers the one answer that differs by caller: a
// cold cell with the first fetch in flight hands back the in-flight
// channel; a caller with a context waits on it (and sees the value, or
// gives up when its context ends), a caller without one takes nothing.
func TestCellColdStartWait(t *testing.T) {
	leaktest.Check(t)
	clk := &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
	tm := Timing{Now: clk.now} // default windows
	started, release := make(chan struct{}), make(chan struct{})
	c := &Cell[int]{Fetch: func(context.Context) (int, error) {
		close(started)
		<-release
		return 9, nil
	}}
	winner := make(chan Read[int])
	go func() { winner <- c.Get(context.Background(), tm) }()
	<-started

	r := c.Get(context.Background(), tm)
	if r.Held || r.Wait == nil || r.Counted != (Stats{Coalesces: 1, NilServes: 1}) {
		t.Fatalf("cold read behind an in-flight fetch = %+v, want nothing held, Wait set", r)
	}
	// A caller whose context ends stops waiting.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	select {
	case <-r.Wait:
		t.Fatal("Wait closed before the fetch resolved")
	case <-ctx.Done():
	}
	// A caller that keeps waiting sees the winner's value.
	close(release)
	<-r.Wait
	if s := c.Snapshot(tm); !s.Held || !s.Fresh || s.Value != 9 || s.Age != 0 {
		t.Fatalf("after Wait closed state = %+v, want 9 held fresh", s)
	}
	if w := <-winner; w.Value != 9 || !w.Fresh {
		t.Fatalf("winner = %+v", w)
	}
	// Default windows: fresh just inside DefaultTTL, expired at it.
	clk.advance(DefaultTTL - time.Nanosecond)
	if !c.Snapshot(tm).Fresh {
		t.Error("not fresh just inside the default TTL")
	}
	clk.advance(time.Nanosecond)
	if c.Snapshot(tm).Fresh {
		t.Error("still fresh at the default TTL")
	}
}

// TestCellFetchTimeout checks the fetch context carries
// DefaultRefreshTimeout and descends from the caller's context.
func TestCellFetchTimeout(t *testing.T) {
	type key struct{}
	var deadlineIn time.Duration
	var inherited bool
	c := &Cell[int]{Fetch: func(ctx context.Context) (int, error) {
		dl, _ := ctx.Deadline()
		deadlineIn = time.Until(dl)
		inherited = ctx.Value(key{}) == "caller"
		return 1, nil
	}}
	c.Get(context.WithValue(context.Background(), key{}, "caller"), Timing{})
	if deadlineIn <= DefaultRefreshTimeout-time.Second || deadlineIn > DefaultRefreshTimeout {
		t.Errorf("fetch deadline in %v, want about DefaultRefreshTimeout (%v)", deadlineIn, DefaultRefreshTimeout)
	}
	if !inherited {
		t.Error("fetch context does not descend from the caller's")
	}
}
