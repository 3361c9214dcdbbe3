package apptracker

import (
	"context"
	"fmt"
	"log/slog"
	"time"

	"p4p/internal/federation"
	"p4p/internal/portal"
	"p4p/internal/refresh"
	"p4p/internal/trace"
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
// once and peer-matching from their union. It is a ViewProvider over a
// federation.Union, so the portals are revalidated together when the
// merged window expires, degrade independently (a stale or dead ISP
// keeps contributing its last-known-good matrix, or is left out if it
// never had one), and compose through federation.Merge with the
// interdomain circuits: src-PID-in-ISP-A → dst-PID-in-ISP-B resolves via
// intradomain + interdomain composition and the selector's inter-AS
// stage sees real cross-provider distances. A merge that fails (two
// portals claiming one PID) keeps the previous union view, or none: the
// selector then falls back to native peering.
type MultiPortalViews struct {
	// Logger, if non-nil, receives one line per portal refresh failure
	// and per merge failure.
	Logger *slog.Logger
	// Tracer, when non-nil, records each portal refresh as a root span
	// (see PortalViews.Tracer).
	Tracer *trace.Tracer

	tm       refresh.Timing // the union's windows; fake-clock tests set Now
	names    []string
	fetchers []ViewFetcher  // per portal; tests swap in scripted ones
	metrics  []*ViewMetrics // per portal; nil entries until SetMetrics
	union    *federation.Union
}

// NewMultiPortalViews consumes one portal per ref, each through a
// WithBase-derived client sharing base's transport and retry policy,
// joined by circuits (whose shard names are ref names). TTL applies to
// the union and every portal (zero = default).
func NewMultiPortalViews(base *portal.Client, refs []PortalRef, circuits []federation.Circuit, ttl time.Duration) *MultiPortalViews {
	m := &MultiPortalViews{tm: refresh.Timing{TTL: ttl}, names: make([]string, len(refs)),
		fetchers: make([]ViewFetcher, len(refs)), metrics: make([]*ViewMetrics, len(refs))}
	for i, ref := range refs {
		if m.names[i] = ref.Name; ref.Name == "" {
			m.names[i] = ref.URL
		}
		m.fetchers[i] = base.WithBase(ref.URL)
	}
	m.union = federation.NewUnion(m.names, circuits, m.timing, m.fetch, m.observe)
	return m
}

// fetch is the union's member fetch: portal i's view and, from a real
// portal client, the ETag it arrived under.
func (m *MultiPortalViews) fetch(ctx context.Context, i int) (mv federation.MemberView, err error) {
	c := m.fetchers[i]
	mv.View, err = fetchView(ctx, m.Tracer, m.Logger, c, m.union.Members(m.tm)[i].Held)
	if pc, ok := c.(*portal.Client); ok {
		mv.Validator = pc.ViewETag()
	}
	return mv, err
}

func (m *MultiPortalViews) timing() refresh.Timing { return m.tm }

// SetMetrics binds per-portal labeled metrics: each backend records
// under its ref name via ViewMetrics.ForPortal. Call it before serving.
func (m *MultiPortalViews) SetMetrics(vm *ViewMetrics) {
	for i, name := range m.names {
		m.metrics[i] = vm.ForPortal(name)
	}
}

// observe books one refresh pass of the union: each portal's counter
// increments go to its labeled metrics, and a failed merge is logged.
func (m *MultiPortalViews) observe(counted []refresh.Stats, _ *federation.Merged, mergeErr error) {
	for i, d := range counted {
		m.metrics[i].mirror(d)
	}
	if mergeErr != nil && m.Logger != nil {
		m.Logger.Error("federation merge failed, keeping previous view",
			slog.String("error", mergeErr.Error()))
	}
}

// Invalidate expires the union view, every portal's view and any
// failure backoff, so the next ViewFor refreshes all of them
// synchronously. Experiment harnesses use it to observe portal-side
// price updates deterministically.
func (m *MultiPortalViews) Invalidate() { m.union.Invalidate() }

// ViewFor implements ViewProvider over the union view; with no view at
// all (cold start, every portal down, or portals that will not merge)
// it returns nil so the selector degrades to native peering.
func (m *MultiPortalViews) ViewFor(asn int) DistanceView {
	if u := m.union.Get(viewCtx, m.tm).Value; u != nil {
		return u.View
	}
	return nil
}

// Ready reports whether any portal holds a view no older than maxAge
// (maxAge <= 0 accepts any held view) — degraded-but-useful is the
// paper's explicit operating mode — and details the split for /readyz.
func (m *MultiPortalViews) Ready(maxAge time.Duration) (bool, string) {
	fresh := 0
	for _, s := range m.union.Members(m.tm) {
		if s.Held && (maxAge <= 0 || s.Age <= maxAge) {
			fresh++
		}
	}
	return fresh > 0, fmt.Sprintf("%d/%d portal views fresh", fresh, len(m.names))
}

// Stats snapshots every portal's cache counters, keyed by ref name.
// StaleServes and NilServes count refresh passes of the union that
// found the portal stale or empty, not selections.
func (m *MultiPortalViews) Stats() map[string]ViewStats {
	out := make(map[string]ViewStats, len(m.names))
	for i, s := range m.union.Members(m.tm) {
		out[m.names[i]] = s.Stats
	}
	return out
}
