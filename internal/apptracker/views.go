package apptracker

import (
	"context"
	"errors"
	"log/slog"
	"time"

	"p4p/internal/core"
	"p4p/internal/portal"
	"p4p/internal/refresh"
	"p4p/internal/telemetry"
	"p4p/internal/trace"
)

// ViewFetcher is the slice of the portal client PortalViews needs; the
// concrete portal.Client satisfies it, and fault-injection tests supply
// failing/slow/flaky implementations.
type ViewFetcher interface {
	DistancesContext(ctx context.Context) (*core.View, error)
}

// BatchFetcher is the optional batch-endpoint slice of the portal
// client; *portal.Client satisfies it. PortalViews falls back to it
// when it has no usable full view for a batch query.
type BatchFetcher interface {
	BatchDistancesContext(ctx context.Context, pairs []portal.PIDPair) (*portal.BatchResult, error)
}

// ViewStats counts how the view cache is behaving; appTrackers export
// it so operators can see when peers are being selected off a stale
// view (the paper's graceful-degradation mode).
type ViewStats = refresh.Stats

// ViewMetrics mirrors ViewStats into the telemetry registry so the view
// cache's behavior is scrapeable at /metrics. Every family carries a
// "portal" label: a single-portal appTracker records under portal="",
// while a multi-portal one binds one ViewMetrics per backend via
// ForPortal, so a stale ISP is attributable from /metrics alone instead
// of vanishing into an aggregate. All methods on the counters are
// nil-safe via the nil-receiver guards below.
type ViewMetrics struct {
	Refreshes   *telemetry.Counter
	Failures    *telemetry.Counter
	StaleServes *telemetry.Counter
	NilServes   *telemetry.Counter
	Coalesces   *telemetry.Counter

	vecs *viewMetricVecs
}

// viewMetricVecs holds the labeled families ViewMetrics instances bind
// children from.
type viewMetricVecs struct {
	refreshes   *telemetry.CounterVec
	failures    *telemetry.CounterVec
	staleServes *telemetry.CounterVec
	nilServes   *telemetry.CounterVec
	coalesces   *telemetry.CounterVec
}

func (v *viewMetricVecs) bind(portalURL string) *ViewMetrics {
	return &ViewMetrics{
		Refreshes:   v.refreshes.With(portalURL),
		Failures:    v.failures.With(portalURL),
		StaleServes: v.staleServes.With(portalURL),
		NilServes:   v.nilServes.With(portalURL),
		Coalesces:   v.coalesces.With(portalURL),
		vecs:        v,
	}
}

// NewViewMetrics registers the view-cache metric families and returns
// the instance bound to the default portal label (""). Multi-portal
// consumers derive per-backend instances with ForPortal.
func NewViewMetrics(r *telemetry.Registry) *ViewMetrics {
	vecs := &viewMetricVecs{
		refreshes: r.CounterVec("p4p_apptracker_view_refreshes_total",
			"Successful portal view fetches (including 304 revalidations).", "portal"),
		failures: r.CounterVec("p4p_apptracker_view_refresh_failures_total",
			"View refreshes that exhausted the portal client's retries.", "portal"),
		staleServes: r.CounterVec("p4p_apptracker_stale_serves_total",
			"Selections served from the last-known-good view past its TTL.", "portal"),
		nilServes: r.CounterVec("p4p_apptracker_nil_serves_total",
			"Selections with no view at all (degraded to native peering).", "portal"),
		coalesces: r.CounterVec("p4p_apptracker_view_coalesced_reads_total",
			"Selections answered from the previous view during an in-flight refresh.", "portal"),
	}
	return vecs.bind("")
}

// ForPortal returns a ViewMetrics recording into the same registered
// families, with the portal label set to portalURL. Nil-safe: a nil
// receiver (uninstrumented tracker) returns nil, which every recording
// method tolerates.
func (m *ViewMetrics) ForPortal(portalURL string) *ViewMetrics {
	if m == nil || m.vecs == nil {
		return nil
	}
	return m.vecs.bind(portalURL)
}

// mirror adds one read's counter increments to the registry families,
// so /metrics tracks Stats exactly.
func (m *ViewMetrics) mirror(d ViewStats) {
	if m == nil {
		return
	}
	m.Refreshes.Add(float64(d.Refreshes))
	m.Failures.Add(float64(d.Failures))
	m.StaleServes.Add(float64(d.StaleServes))
	m.NilServes.Add(float64(d.NilServes))
	m.Coalesces.Add(float64(d.Coalesces))
}

// PortalViews adapts a portal client to the selector's ViewProvider
// with the availability behavior the paper's deployment story needs:
// views are cached for a TTL, refreshed with conditional GET, and when
// the portal is unreachable the last-known-good view keeps serving
// (flagged in Stats) instead of failing the selection — "applications
// can make default decisions without the iTracker".
//
// Refreshes are singleflight: the first caller past the TTL performs
// the fetch while concurrent callers are answered immediately from the
// previous view, so a slow portal never stalls the selection path.
type PortalViews struct {
	// Client fetches views (typically a *portal.Client).
	Client ViewFetcher
	// TTL is how long a fetched view is served without revalidation
	// (default 30s).
	TTL time.Duration
	// RefreshTimeout bounds one refresh, on top of the client's own
	// retry policy (default 10s).
	RefreshTimeout time.Duration
	// FailureBackoff is how long to serve stale after a failed refresh
	// before trying the portal again (default 5s); it stops a dead
	// portal from being hammered on every selection.
	FailureBackoff time.Duration
	// Logger, if non-nil, receives one structured line per refresh
	// failure.
	Logger *slog.Logger
	// Metrics, when non-nil, mirrors the ViewStats counters into the
	// telemetry registry (see NewViewMetrics).
	Metrics *ViewMetrics
	// Tracer, when non-nil, records each portal refresh as a root span
	// (the refresh happens off any caller's request path, so it starts
	// its own trace) annotated with the outcome: refreshed, or a
	// stale/nil fallback. The portal client's spans nest under it, so a
	// refresh that retried three times and fell back is one readable
	// trace in /debug/traces.
	Tracer *trace.Tracer

	// nowFn, when non-nil, replaces time.Now so tests can drive the
	// TTL and backoff windows with a fake clock instead of sleeping.
	nowFn func() time.Time

	cell refresh.Cell[*core.View]
}

// NewPortalViews builds a PortalViews with default timings.
func NewPortalViews(client ViewFetcher, ttl time.Duration) *PortalViews {
	p := &PortalViews{Client: client, TTL: ttl}
	p.cell.Fetch = p.fetch
	return p
}

// timing hands the cell the current values of the exported knobs, which
// callers may set any time before serving.
func (p *PortalViews) timing() refresh.Timing {
	return refresh.Timing{TTL: p.TTL, RefreshTimeout: p.RefreshTimeout, FailureBackoff: p.FailureBackoff, Now: p.nowFn}
}

// viewCtx is the context every ViewFor refreshes under.
//
//p4pvet:ignore ctxflow ViewFor implements the context-free ViewProvider interface; RefreshTimeout is the refresh's only ancestor deadline
var viewCtx = context.Background()

// ViewFor implements ViewProvider. The ASN argument is unused: one
// PortalViews speaks for the one iTracker its client points at. It has
// no context to wait with, so a cold start with another caller's first
// fetch in flight answers nil (the selector degrades to native peering)
// instead of blocking.
//
//p4p:hotpath the held-view path is the cell's atomic load and clock read
func (p *PortalViews) ViewFor(asn int) DistanceView {
	r := p.cell.Get(viewCtx, p.timing())
	if r.Counted != (ViewStats{}) {
		p.Metrics.mirror(r.Counted)
	}
	if !r.Held {
		return nil
	}
	return r.Value
}

// fetch is the cell's refresh.
func (p *PortalViews) fetch(ctx context.Context) (*core.View, error) {
	_, _, held := p.LastKnownGood()
	return fetchView(ctx, p.Tracer, p.Logger, p.Client, held)
}

// fetchView is one portal round-trip for a view cell, traced as its own
// root span and logged when it fails; held says whether a
// last-known-good view would back a failure.
//
//p4p:coldpath network fetch, tracing and logging
func fetchView(ctx context.Context, tr *trace.Tracer, l *slog.Logger, c ViewFetcher, held bool) (*core.View, error) {
	ctx, span := tr.StartRoot(ctx, "view_refresh")
	defer span.End()
	v, err := c.DistancesContext(ctx)
	if err != nil {
		if l != nil {
			l.Warn("portal refresh failed, serving last-known-good",
				slog.String("error", err.Error()))
		}
		span.RecordError(err)
		if held {
			span.SetAttr("outcome", "stale_fallback")
		} else {
			span.SetAttr("outcome", "nil_fallback")
		}
		return nil, err
	}
	span.SetAttr("outcome", "refreshed")
	span.SetAttrInt("view_version", v.Version)
	return v, nil
}

// errNoBatchSource reports a batch query with neither a cached view
// covering the pairs nor a batch-capable client.
var errNoBatchSource = errors.New("apptracker: no cached view covers the pairs and the portal client has no batch support")

// BatchDistances answers a set of src→dst distance queries. It prefers
// the cached full view — refreshed through the usual TTL /
// singleflight / last-known-good machinery of ViewFor, so it costs no
// network in steady state — and falls back to the portal's batch
// endpoint (many pairs per request, no square matrix on the wire) when
// no held view covers the requested PIDs. Unreachable pairs come back
// as +Inf, mirroring core.View.
//
//p4p:hotpath held-view branch backs the portal batch endpoint's serving path
func (p *PortalViews) BatchDistances(ctx context.Context, pairs []portal.PIDPair) ([]float64, error) {
	if len(pairs) == 0 {
		return nil, nil
	}
	ctx, span := trace.StartSpan(ctx, "batch_distances")
	defer span.End()
	span.SetAttrInt("pairs", len(pairs))
	if out := heldDistances(p.ViewFor(0), pairs); out != nil {
		span.SetAttr("source", "held_view")
		return out, nil
	}
	bf, ok := p.Client.(BatchFetcher)
	if !ok {
		span.RecordError(errNoBatchSource)
		return nil, errNoBatchSource
	}
	span.SetAttr("source", "batch_endpoint")
	//p4pvet:ignore allochot portal fallback is a network round-trip; its allocations are noise next to the HTTP request
	res, err := bf.BatchDistancesContext(ctx, pairs)
	if err != nil {
		span.RecordError(err)
		return nil, err
	}
	return res.Distances, nil
}

// heldDistances answers pairs (at least one) from a held view, or nil
// when there is none or it lacks one of their PIDs (View.Distance panics
// on absent PIDs).
func heldDistances(v *core.View, pairs []portal.PIDPair) []float64 {
	if v == nil {
		return nil
	}
	out := make([]float64, len(pairs))
	for i, pr := range pairs {
		if _, ok := v.Index(pr.Src); !ok {
			return nil
		}
		if _, ok := v.Index(pr.Dst); !ok {
			return nil
		}
		out[i] = v.Distance(pr.Src, pr.Dst)
	}
	return out
}

// Ready reports whether the appTracker holds portal data fresh enough
// to serve: a view exists and, when maxAge > 0, it was fetched within
// maxAge. /readyz gates on it so a load balancer never routes to an
// appTracker that would answer every selection from nothing (native
// random peering) because its portal was unreachable since boot.
func (p *PortalViews) Ready(maxAge time.Duration) bool {
	st := p.cell.Snapshot(p.timing())
	return st.Held && (maxAge <= 0 || st.Age <= maxAge)
}

// Stats returns a snapshot of the cache counters.
func (p *PortalViews) Stats() ViewStats {
	return p.cell.Snapshot(p.timing()).Stats
}

// Invalidate expires the held view and any failure backoff, so the next
// ViewFor refreshes synchronously. The last-known-good view is kept: if
// the refresh fails, degradation semantics are unchanged. Experiment
// harnesses call it after a portal-side price update to observe the new
// view deterministically instead of waiting out the TTL.
func (p *PortalViews) Invalidate() {
	p.cell.Invalidate()
}

// LastKnownGood reports the currently held view (possibly stale) and
// when it was fetched; ok is false before any successful fetch.
func (p *PortalViews) LastKnownGood() (v *core.View, fetched time.Time, ok bool) {
	st := p.cell.Snapshot(p.timing())
	return st.Value, st.At, st.Held
}
