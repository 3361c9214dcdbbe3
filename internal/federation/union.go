package federation

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"p4p/internal/core"
	"p4p/internal/refresh"
	"p4p/internal/trace"
)

// MemberView is what one member fetch yields: the view and the
// validator it arrived under ("" when the source sent none).
type MemberView struct {
	View      *core.View
	Validator string
}

// Merged is one published state of a Union. Immutable once stored.
type Merged[R any] struct {
	// Key fingerprints the inputs: per-member validator + version, or
	// "absent". Same key ⇒ same merged view, so a revalidation pass
	// where every source said "not modified" republishes View and
	// Rendered untouched.
	Key  string
	View *core.View
	// Serving counts the members that contributed a view (fresh or
	// last-known-good) to the pass that published this; Fresh, those
	// whose view was inside its TTL.
	Serving, Fresh int
	// Rendered is what the owner's render made of View and Key.
	Rendered R
}

// Union keeps one last-known-good view per member and the merge of
// them: the paper's "one iTracker per provider, consumed together" as
// one value with two owners, the federation Router and the appTracker's
// MultiPortalViews. Members are revalidated together, concurrently, when
// the merged window expires; they degrade independently (a failing
// member keeps contributing its last-known-good view, and only one that
// never produced a view is left out); anything that stops the merge is
// a failed refresh of the merged cell, which keeps the previous Merged
// and retries after the failure backoff. R is whatever the owner
// publishes beside each merged view, as refresh.Cell is generic over
// its value.
type Union[R any] struct {
	names    []string
	cells    []refresh.Cell[MemberView] // cells[i] holds member names[i]'s view
	circuits []Circuit
	timing   func() refresh.Timing
	render   func(v *core.View, key string) (R, error)
	observe  func(counted []refresh.Stats, merged *Merged[R], mergeErr error)
	merged   refresh.Cell[*Merged[R]]
}

// NewUnion builds a union of the named members, joined by circuits
// (whose shard names are member names); the funcs are the owner's.
// timing returns its current windows and clock for the refresh pass,
// which has no caller to hand it one; every other method takes the same
// Timing by value, as a Cell's do. fetch is member i's refresh: an error
// keeps that member's last-known-good view. render, when non-nil, runs
// inside the refresh on every newly merged view, and its error fails
// the pass. observe, when non-nil, is called once at the end of every
// pass, so the owner's metrics equal the member Stats exactly and a
// failed merge gets logged: counted[i] is what the pass's read of member
// i added to that member's Stats; merged is the new state when the
// inputs changed and merged, nil on a same-key republish and on any
// failure; mergeErr is set when the members' views would not merge or
// render (two members serving one PID, an unencodable matrix) — a
// deployment error, not a transient.
func NewUnion[R any](names []string, circuits []Circuit, timing func() refresh.Timing,
	fetch func(ctx context.Context, i int) (MemberView, error),
	render func(v *core.View, key string) (R, error),
	observe func(counted []refresh.Stats, merged *Merged[R], mergeErr error)) *Union[R] {
	u := &Union[R]{names: names, cells: make([]refresh.Cell[MemberView], len(names)),
		circuits: circuits, timing: timing, render: render, observe: observe}
	for i := range u.cells {
		u.cells[i].Fetch = func(ctx context.Context) (MemberView, error) { return fetch(ctx, i) }
	}
	u.merged.Fetch = u.refresh
	return u
}

// Get returns the merged state to serve now: the published one inside
// its TTL (one atomic load and a clock read), else whatever a refresh
// pass produces, or the previous one while another caller's pass runs.
// Read.Value is nil until a first pass has merged something.
func (u *Union[R]) Get(ctx context.Context, tm refresh.Timing) refresh.Read[*Merged[R]] {
	return u.merged.Get(ctx, tm)
}

// Current returns the published merged state without refreshing it, nil
// before the first successful pass.
func (u *Union[R]) Current(tm refresh.Timing) *Merged[R] {
	return u.merged.Snapshot(tm).Value
}

// Members snapshots every member's cell, in construction order.
func (u *Union[R]) Members(tm refresh.Timing) []refresh.State[MemberView] {
	out := make([]refresh.State[MemberView], len(u.cells))
	for i := range u.cells {
		out[i] = u.cells[i].Snapshot(tm)
	}
	return out
}

// Invalidate expires the merged state, every member and any failure
// backoff, so the next Get refetches all of them. Held views are kept
// as last-known-good.
func (u *Union[R]) Invalidate() {
	for i := range u.cells {
		u.cells[i].Invalidate()
	}
	u.merged.Invalidate()
}

// refresh is the merged cell's fetch: it revalidates every member
// concurrently through the member's own cell, then publishes the merge
// of whatever views exist. Members in failure backoff, and members that
// fail now, contribute their last-known-good view.
func (u *Union[R]) refresh(ctx context.Context) (ent *Merged[R], err error) {
	ctx, span := trace.StartSpan(ctx, "federation_refresh")
	defer span.End()
	counted := make([]refresh.Stats, len(u.cells))
	var merged *Merged[R]
	var mergeErr error
	defer func() {
		if err != nil {
			span.RecordError(err)
		}
		if u.observe != nil {
			u.observe(counted, merged, mergeErr)
		}
	}()
	tm := u.timing()
	reads := make([]refresh.Read[MemberView], len(u.cells))
	var wg sync.WaitGroup
	for i := range u.cells {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reads[i] = u.cells[i].Get(ctx, tm)
		}(i)
	}
	wg.Wait()

	views := make([]ShardView, 0, len(u.cells))
	var keyb strings.Builder
	fresh := 0
	for i, name := range u.names {
		r := reads[i]
		counted[i] = r.Counted
		if !r.Held {
			fmt.Fprintf(&keyb, "%s=absent;", name)
			continue
		}
		fmt.Fprintf(&keyb, "%s=%s#%d;", name, r.Value.Validator, r.Value.View.Version)
		views = append(views, ShardView{Name: name, View: r.Value.View})
		if r.Fresh {
			fresh++
		}
	}
	span.SetAttrInt("shards_serving", len(views))
	if len(views) == 0 {
		return nil, errNoShardViews
	}
	ent = &Merged[R]{Key: keyb.String(), Serving: len(views), Fresh: fresh}
	if prev := u.merged.Snapshot(tm).Value; prev != nil && prev.Key == ent.Key {
		// Nothing changed: republish the previous view (and rendering)
		// under a new TTL window. Both are shared, immutable.
		ent.View, ent.Rendered = prev.View, prev.Rendered
		return ent, nil
	}
	if ent.View, err = Merge(views, u.circuits); err == nil && u.render != nil {
		ent.Rendered, err = u.render(ent.View, ent.Key)
	}
	if err != nil {
		// Keep the previous merge (if any) rather than publish a view
		// known to be wrong.
		mergeErr = err
		return nil, err
	}
	merged = ent
	span.SetAttrInt("merged_pids", len(ent.View.PIDs))
	return ent, nil
}
