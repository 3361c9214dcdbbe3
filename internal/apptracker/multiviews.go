package apptracker

import (
	"context"
	"log/slog"
	"sync"
	"time"

	"p4p/internal/core"
	"p4p/internal/federation"
	"p4p/internal/portal"
)

// PortalRef names one backend portal a MultiPortalViews consumes.
type PortalRef struct {
	// Name is the identity circuits reference and stats/metrics key on;
	// defaults to URL.
	Name string
	// URL is the portal root.
	URL string
}

// MultiPortalViews is the paper's real deployment shape on the
// application side: an appTracker consuming N per-provider portals at
// once and peer-matching from their union. Each portal gets its own
// PortalViews underneath — its own TTL, singleflight, failure backoff,
// and last-known-good view — so shards degrade independently: one
// stale or dead ISP keeps serving its last-known-good matrix (or drops
// out entirely) while every other shard stays fresh. The per-shard
// views compose through federation.Merge with the configured
// interdomain circuits, so src-PID-in-ISP-A → dst-PID-in-ISP-B
// resolves via intradomain + interdomain composition and the
// selector's inter-AS stage sees real cross-provider distances.
//
// The merge is cached by the identity of the input views: in steady
// state every ViewFor is N pointer-equal cache hits and one map
// lookup, and a recompose happens only when some portal actually
// delivered a new view (or dropped out).
type MultiPortalViews struct {
	// Logger, if non-nil, receives one line per merge failure.
	Logger *slog.Logger

	portals []*PortalViews
	refs    []PortalRef

	mu        sync.Mutex
	circuits  []federation.Circuit
	lastViews []*core.View // merge-cache key: input view identities
	merged    *core.View
}

// NewMultiPortalViews builds one PortalViews per ref, each backed by a
// WithBase-derived client sharing base's transport, retry policy, and
// URL-keyed ETag cache. TTL applies to every portal (zero = default).
func NewMultiPortalViews(base *portal.Client, refs []PortalRef, ttl time.Duration) *MultiPortalViews {
	m := &MultiPortalViews{}
	for _, ref := range refs {
		if ref.Name == "" {
			ref.Name = ref.URL
		}
		m.refs = append(m.refs, ref)
		m.portals = append(m.portals, NewPortalViews(base.WithBase(ref.URL), ttl))
	}
	return m
}

// Portal returns the underlying PortalViews for the i'th ref, so
// callers can tune per-portal knobs (timeouts, tracer) directly.
func (m *MultiPortalViews) Portal(i int) *PortalViews { return m.portals[i] }

// SetMetrics binds per-portal labeled metrics (satellite of DESIGN.md
// §14): each backend records under its ref name via ViewMetrics.ForPortal.
func (m *MultiPortalViews) SetMetrics(vm *ViewMetrics) {
	for i, p := range m.portals {
		p.Metrics = vm.ForPortal(m.refs[i].Name)
	}
}

// SetCircuits replaces the interdomain circuits and invalidates the
// cached merge, so the next ViewFor composes with the new costs.
// Circuit shard names are PortalRef names.
func (m *MultiPortalViews) SetCircuits(cs []federation.Circuit) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.circuits = append([]federation.Circuit(nil), cs...)
	m.lastViews = nil
	m.merged = nil
}

// Invalidate expires every portal's view and backoff, so the next
// ViewFor refreshes all of them synchronously. Experiment harnesses
// use it to observe portal-side price updates deterministically.
func (m *MultiPortalViews) Invalidate() {
	for _, p := range m.portals {
		p.Invalidate()
	}
}

// ViewFor implements ViewProvider over the union view. All portals
// refresh concurrently (each through its own TTL/singleflight/
// last-known-good machinery), portals with nothing to offer are left
// out of the merge, and with no views at all it returns nil so the
// selector degrades to native peering.
//
//p4p:coldpath fan-out refresh and merge; the steady-state cost is the pointer-identity cache check
func (m *MultiPortalViews) ViewFor(asn int) DistanceView {
	views := make([]*core.View, len(m.portals))
	var wg sync.WaitGroup
	for i, p := range m.portals {
		wg.Add(1)
		go func(i int, p *PortalViews) {
			defer wg.Done()
			views[i] = p.ViewFor(asn)
		}(i, p)
	}
	wg.Wait()

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.lastViews != nil && sameViews(m.lastViews, views) {
		return m.merged
	}
	shards := make([]federation.ShardView, 0, len(views))
	for i, v := range views {
		if v != nil {
			shards = append(shards, federation.ShardView{Name: m.refs[i].Name, View: v})
		}
	}
	m.lastViews = views
	if len(shards) == 0 {
		m.merged = nil
		return nil
	}
	merged, err := federation.Merge(shards, m.circuits)
	if err != nil {
		// Overlapping shards: a configuration error. Serve nothing
		// rather than a view known to be wrong; the selector falls back
		// to native peering.
		if m.Logger != nil {
			m.Logger.Error("federation merge failed, degrading to native peering",
				slog.String("error", err.Error()))
		}
		m.merged = nil
		return nil
	}
	m.merged = merged
	return merged
}

// sameViews reports whether two input snapshots hold identical view
// pointers (PortalViews returns the same *core.View until a refresh
// replaces it, so pointer identity is exactly "nothing changed").
func sameViews(a, b []*core.View) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// BatchDistances answers src→dst queries from the merged view; pairs
// not covered (e.g. no portal serving yet) return errNoBatchSource —
// there is no single backend to fall back to for cross-shard pairs.
func (m *MultiPortalViews) BatchDistances(ctx context.Context, pairs []portal.PIDPair) ([]float64, error) {
	if len(pairs) == 0 {
		return nil, nil
	}
	v := m.ViewFor(0)
	if v == nil || !viewCovers(v, pairs) {
		return nil, errNoBatchSource
	}
	out := make([]float64, len(pairs))
	for i, pr := range pairs {
		out[i] = v.Distance(pr.Src, pr.Dst)
	}
	return out, nil
}

// Ready reports how many portals hold a view no older than maxAge
// (maxAge <= 0 accepts any held view). An appTracker is ready when at
// least one portal serves — degraded-but-useful is the paper's
// explicit operating mode — and /readyz details the split.
func (m *MultiPortalViews) Ready(maxAge time.Duration) (serving, total int) {
	for _, p := range m.portals {
		if p.Ready(maxAge) {
			serving++
		}
	}
	return serving, len(m.portals)
}

// Stats snapshots every portal's cache counters, keyed by ref name.
func (m *MultiPortalViews) Stats() map[string]ViewStats {
	out := make(map[string]ViewStats, len(m.portals))
	for i, p := range m.portals {
		out[m.refs[i].Name] = p.Stats()
	}
	return out
}
