// Package refresh holds the one freshness-with-fallback state machine
// the serving stack runs on: a fetched value serves for a TTL, is
// revalidated by a single caller while everyone else keeps the previous
// value, and survives failures as last-known-good, retried no sooner
// than a backoff — the paper's "applications can make default decisions
// without the iTracker" as code. The appTracker's view cache, each
// federation shard and the router's merged entry are all a Cell.
package refresh

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// The timings every cell runs on unless its owner configures others.
const (
	DefaultTTL            = 30 * time.Second
	DefaultRefreshTimeout = 10 * time.Second
	DefaultFailureBackoff = 5 * time.Second
)

// Timing is a cell's three windows and its clock; zero fields take the
// defaults. Owners keep these as exported fields that may be set after
// construction, so a cell stores none of them: every call is handed the
// owner's current values.
type Timing struct {
	TTL            time.Duration // how long a fetched value serves without revalidation
	RefreshTimeout time.Duration // bounds one fetch
	FailureBackoff time.Duration // how long last-known-good serves before a failed source is retried
	// Now, when non-nil, replaces time.Now so tests drive the windows
	// with a fake clock instead of sleeping.
	Now func() time.Time
}

// now reads the clock. Cells call it before taking their lock: Now is
// caller-supplied code.
func (t Timing) now() time.Time {
	if t.Now != nil {
		return t.Now()
	}
	return time.Now()
}

func (t Timing) fresh(now, at time.Time) bool { return now.Sub(at) < orDefault(t.TTL, DefaultTTL) }

func orDefault(d, def time.Duration) time.Duration {
	if d > 0 {
		return d
	}
	return def
}

// Stats counts how a cell has answered. Owners export it so operators
// can see when decisions are being made off a stale value (the paper's
// graceful-degradation mode).
type Stats struct {
	// Refreshes counts successful fetches (including cheap 304
	// revalidations inside a portal client).
	Refreshes int64 `json:"refreshes"`
	// Failures counts fetches that returned an error or panicked.
	Failures int64 `json:"failures"`
	// StaleServes counts reads answered from the last-known-good value
	// after its TTL expired (source slow or down).
	StaleServes int64 `json:"stale_serves"`
	// NilServes counts reads with nothing held at all (source down and
	// never reached); callers degrade to their no-information default.
	NilServes int64 `json:"nil_serves"`
	// Coalesces counts reads answered from the previous value while
	// another caller's refresh was in flight (singleflight).
	Coalesces int64 `json:"coalesces"`
}

func (s *Stats) add(d Stats) {
	s.Refreshes += d.Refreshes
	s.Failures += d.Failures
	s.StaleServes += d.StaleServes
	s.NilServes += d.NilServes
	s.Coalesces += d.Coalesces
}

// Read is one Get's answer.
type Read[T any] struct {
	Value T    // what to serve; meaningful only when Held
	Held  bool // false until the first successful fetch
	Fresh bool // Value is inside its TTL; held but not fresh is last-known-good
	// Counted is what this read added to the cell's Stats, so owners can
	// mirror the same increments into their own metrics.
	Counted Stats
	// Wait is non-nil only when nothing is held and another caller's
	// first fetch is in flight; it closes when that fetch resolves. A
	// caller with a context of its own may wait on it and then take a
	// Snapshot; one without takes the empty answer.
	Wait <-chan struct{}
}

// State is a point-in-time snapshot of a cell for stats and probes.
type State[T any] struct {
	Value   T
	Held    bool
	At      time.Time     // when Value was stamped fresh; zero after Invalidate
	Age     time.Duration // now - At
	Fresh   bool          // Age is inside the TTL
	LastErr error         // the most recent refresh's error, nil after a success
	Stats   Stats
}

// held is one published value with its freshness stamp. Immutable.
type held[T any] struct {
	v  T
	at time.Time
}

// Cell is the state machine around one fetched value. Set Fetch before
// the first Get; a Cell must not be copied after that.
type Cell[T any] struct {
	// Fetch produces a new value. It runs on the goroutine of the one
	// caller that found the value expired, under RefreshTimeout, with no
	// lock held.
	Fetch func(ctx context.Context) (T, error)

	held atomic.Pointer[held[T]]

	mu        sync.Mutex
	inflight  chan struct{} // non-nil while one refresh runs
	nextRetry time.Time
	lastErr   error
	stats     Stats
}

// errFetchPanicked is what a refresh records when Fetch never returned.
var errFetchPanicked = errors.New("refresh: fetch panicked")

// Get returns the value to serve now. Inside the TTL that is one atomic
// load and a clock read. Past it, the first caller outside any failure
// backoff runs Fetch and everyone else is answered at once from the
// previous value, so a slow source never stalls readers once the cell
// holds anything.
func (c *Cell[T]) Get(ctx context.Context, tm Timing) Read[T] {
	now := tm.now()
	if h := c.held.Load(); h != nil && tm.fresh(now, h.at) {
		return Read[T]{Value: h.v, Held: true, Fresh: true}
	}
	return c.expired(ctx, tm, now)
}

// expired decides what a read past the TTL does: become the refresher,
// join a refresh in flight, or sit out a failure backoff.
func (c *Cell[T]) expired(ctx context.Context, tm Timing, now time.Time) Read[T] {
	c.mu.Lock()
	if h := c.held.Load(); h != nil && tm.fresh(now, h.at) {
		// A refresh landed between the lock-free check and the lock.
		c.mu.Unlock()
		return Read[T]{Value: h.v, Held: true, Fresh: true}
	}
	if c.inflight == nil && !now.Before(c.nextRetry) {
		done := make(chan struct{})
		c.inflight = done
		c.mu.Unlock()
		return c.refresh(ctx, tm, done)
	}
	defer c.mu.Unlock()
	if c.inflight == nil {
		return c.fallback(Stats{})
	}
	r := c.fallback(Stats{Coalesces: 1})
	if !r.Held {
		r.Wait = c.inflight
	}
	return r
}

// fallback answers a read that cannot be fresh from whatever is held
// and books it on top of counted. Callers hold c.mu.
func (c *Cell[T]) fallback(counted Stats) Read[T] {
	r := Read[T]{Counted: counted}
	if h := c.held.Load(); h != nil {
		r.Value, r.Held, r.Counted.StaleServes = h.v, true, 1
	} else {
		r.Counted.NilServes = 1
	}
	c.stats.add(r.Counted)
	return r
}

// refresh runs Fetch as the singleflight winner. Publication, the
// failure backoff and the release of the in-flight marker all run under
// defer, so a panicking Fetch is booked as a failure and cannot strand
// later callers on stale data. Freshness is stamped after Fetch
// returns: a cell refreshed from other cells (the router's merge over
// its shards) then never expires before its inputs do.
func (c *Cell[T]) refresh(ctx context.Context, tm Timing, done chan struct{}) (r Read[T]) {
	var v T
	err := errFetchPanicked
	defer func() {
		at := tm.now()
		c.mu.Lock()
		if err == nil {
			c.held.Store(&held[T]{v: v, at: at})
			c.nextRetry = time.Time{}
			r = Read[T]{Value: v, Held: true, Fresh: true, Counted: Stats{Refreshes: 1}}
			c.stats.Refreshes++
		} else {
			c.nextRetry = at.Add(orDefault(tm.FailureBackoff, DefaultFailureBackoff))
			r = c.fallback(Stats{Failures: 1})
		}
		c.lastErr = err
		c.inflight = nil
		c.mu.Unlock()
		close(done)
	}()
	ctx, cancel := context.WithTimeout(ctx, orDefault(tm.RefreshTimeout, DefaultRefreshTimeout))
	defer cancel()
	v, err = c.Fetch(ctx)
	return r
}

// Invalidate expires the held value and any failure backoff, so the
// next Get refreshes. The value itself is kept: if that refresh fails,
// last-known-good semantics are unchanged.
func (c *Cell[T]) Invalidate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if h := c.held.Load(); h != nil {
		c.held.Store(&held[T]{v: h.v})
	}
	c.nextRetry = time.Time{}
}

// Snapshot reports the cell's current state without touching it.
func (c *Cell[T]) Snapshot(tm Timing) State[T] {
	now := tm.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	s := State[T]{LastErr: c.lastErr, Stats: c.stats}
	if h := c.held.Load(); h != nil {
		s.Value, s.Held, s.At, s.Age, s.Fresh = h.v, true, h.at, now.Sub(h.at), tm.fresh(now, h.at)
	}
	return s
}
