// Package itracker assembles the paper's iTracker: the portal a network
// provider operates to expose the three control-plane interfaces of
// Section 3 — policy, p4p-distance, and capability — plus the IP-to-PID
// mapping clients use to locate themselves. It wraps the p-distance
// engine of internal/core with access control, view caching, and the
// per-interface data types; internal/portal serves it over HTTP.
package itracker

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"p4p/internal/core"
	"p4p/internal/telemetry"
	"p4p/internal/topology"
	"p4p/internal/trace"
)

// Policy is the network usage policy exposed by the policy interface.
// The paper names two examples, both represented here: coarse-grained
// time-of-day link usage policies, and the near-congestion /
// heavy-usage thresholds of the Comcast field tests.
type Policy struct {
	// TimeOfDay lists links applications should avoid during given
	// local hours.
	TimeOfDay []LinkUsagePolicy `json:"time_of_day,omitempty"`
	// NearCongestionUtil is the utilization above which a link is
	// considered near congestion (e.g. 0.7).
	NearCongestionUtil float64 `json:"near_congestion_util,omitempty"`
	// HeavyUsageUtil is the heavy-usage threshold (e.g. 0.9).
	HeavyUsageUtil float64 `json:"heavy_usage_util,omitempty"`
}

// LinkUsagePolicy asks applications to avoid a link during peak hours.
type LinkUsagePolicy struct {
	Link      topology.LinkID `json:"link"`
	AvoidFrom float64         `json:"avoid_from_hour"` // inclusive, [0,24)
	AvoidTo   float64         `json:"avoid_to_hour"`   // exclusive
}

// Capability is one entry served by the capability interface: an
// on-demand server or cache a provider offers to accelerate content
// distribution.
type Capability struct {
	Kind        string       `json:"kind"` // "on-demand-server" | "cache"
	PID         topology.PID `json:"pid"`
	CapacityBps float64      `json:"capacity_bps"`
	Restricted  bool         `json:"-"` // served only to trusted callers
}

// Config parameterizes a Server.
type Config struct {
	Name string
	ASN  int
	// TrustedTokens, when non-empty, restricts the distance and
	// capability interfaces to callers presenting one of these tokens
	// ("a deployment model can be that ISPs restrict access to only
	// trusted appTrackers").
	TrustedTokens []string
	Policy        Policy
	Capabilities  []Capability
	// ServePIDs, when non-empty, restricts the external view to this
	// PID subset instead of every aggregation PID in the topology. A
	// PID-sharded deployment runs several iTrackers over one shared
	// engine, each speaking for its shard; the slice is copied, sorted,
	// and deduped at New so the served view's PID order stays canonical
	// (ascending) regardless of configuration order.
	ServePIDs []topology.PID
}

// Check reports why New would refuse c over an engine on g, or nil: a
// ServePIDs entry that is not a PID of g, whose row every Distances
// would look up past the engine's routing trees.
func (c Config) Check(g *topology.Graph) error {
	for _, p := range c.ServePIDs {
		if p < 0 || int(p) >= g.NumNodes() {
			return fmt.Errorf("itracker: served PID %d is not in %s (PIDs 0 to %d)", p, g.Name, g.NumNodes()-1)
		}
	}
	return nil
}

// Metrics instruments one iTracker: how long external-view recomputes
// take, which view version is being served, and — per price update —
// the super-gradient step norm and the maximum link utilization, the
// two quantities that show the paper's dual-decomposition converging
// (‖Δp‖ → 0 as the prices settle, MLU approaching the LP optimum).
// All recording methods are nil-safe.
type Metrics struct {
	// RecomputeSeconds is the view-materialization duration histogram.
	RecomputeSeconds *telemetry.Histogram
	// ViewVersion is the engine version of the cached external view.
	ViewVersion *telemetry.Gauge
	// SupergradientNorm is ‖p(τ+1) − p(τ)‖₂ of the last price update.
	SupergradientNorm *telemetry.Gauge
	// MaxLinkUtilization is the MLU implied by the last observation.
	MaxLinkUtilization *telemetry.Gauge
	// PriceUpdates counts super-gradient updates applied.
	PriceUpdates *telemetry.Counter
}

// NewMetrics registers the iTracker metric families.
func NewMetrics(r *telemetry.Registry) *Metrics {
	return &Metrics{
		RecomputeSeconds: r.Histogram("p4p_itracker_view_recompute_seconds",
			"Time to materialize the external p-distance view.", nil),
		ViewVersion: r.Gauge("p4p_itracker_view_version",
			"Engine version of the cached external view."),
		SupergradientNorm: r.Gauge("p4p_itracker_supergradient_norm",
			"L2 norm of the last super-gradient price step (converges toward 0)."),
		MaxLinkUtilization: r.Gauge("p4p_itracker_max_link_utilization",
			"Maximum link utilization implied by the last traffic observation."),
		PriceUpdates: r.Counter("p4p_itracker_price_updates_total",
			"Super-gradient price updates applied."),
	}
}

func (m *Metrics) recompute(d time.Duration, version int) {
	if m == nil {
		return
	}
	m.RecomputeSeconds.Observe(d.Seconds())
	m.ViewVersion.Set(float64(version))
}

func (m *Metrics) update(norm, mlu float64) {
	if m == nil {
		return
	}
	m.SupergradientNorm.Set(norm)
	m.MaxLinkUtilization.Set(mlu)
	m.PriceUpdates.Inc()
}

// Server is one provider's iTracker.
type Server struct {
	cfg    Config
	engine *core.Engine
	pidMap *PIDMap
	// Metrics, when non-nil, instruments view recomputes and price
	// updates (see NewMetrics). Set it before serving traffic.
	Metrics *Metrics

	// pids is the served PID set, fixed at New: ServePIDs sorted and
	// deduped, or every aggregation PID of the engine's graph, which is
	// finished before an engine is built over it.
	pids []topology.PID

	mu          sync.Mutex
	cachedView  *core.View
	cachedVer   int
	inflight    chan struct{} // non-nil while one goroutine materializes
	recomputes  int64
	trusted     map[string]bool
	queryCount  int64
	updateCount int64

	// testHookPreMatrix, when non-nil, runs inside the singleflight
	// materializer just before engine.Matrix; tests use it to inject
	// panics and to synchronize on "a recompute is in flight".
	testHookPreMatrix func()
}

// ErrAccessDenied is returned when a caller lacks a trusted token on a
// restricted interface.
var ErrAccessDenied = errors.New("itracker: access denied")

// New builds an iTracker over a p-distance engine and an IP-to-PID map
// (which may be nil if PID lookup is not served). It panics on a cfg
// that Check refuses.
func New(cfg Config, engine *core.Engine, pidMap *PIDMap) *Server {
	if err := cfg.Check(engine.Graph()); err != nil {
		panic(err.Error())
	}
	t := &Server{cfg: cfg, engine: engine, pidMap: pidMap, trusted: map[string]bool{}}
	for _, tok := range cfg.TrustedTokens {
		t.trusted[tok] = true
	}
	if len(cfg.ServePIDs) == 0 {
		t.pids = engine.Graph().AggregationPIDs()
		return t
	}
	pids := append([]topology.PID(nil), cfg.ServePIDs...)
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	t.pids = pids[:1]
	for _, p := range pids[1:] {
		if p != t.pids[len(t.pids)-1] {
			t.pids = append(t.pids, p)
		}
	}
	return t
}

// Name returns the iTracker's name.
func (t *Server) Name() string { return t.cfg.Name }

// ASN returns the AS this iTracker speaks for.
func (t *Server) ASN() int { return t.cfg.ASN }

// Engine exposes the underlying p-distance engine (provider side only).
func (t *Server) Engine() *core.Engine { return t.engine }

// authorized reports whether a token may use restricted interfaces.
func (t *Server) authorized(token string) bool {
	if len(t.trusted) == 0 {
		return true // open deployment
	}
	return t.trusted[token]
}

// PolicyFor serves the policy interface.
func (t *Server) PolicyFor(token string) (Policy, error) {
	// The policy interface is coarse and public by design.
	return t.cfg.Policy, nil
}

// Distances serves the p4p-distance interface: the external view over
// the externally visible (aggregation) PIDs. Views are cached by engine
// version so per-client queries never recompute ("Network information
// should be aggregated and allow caching").
//
// Materialization is singleflight: when a version bump invalidates the
// cache, exactly one caller runs engine.Matrix while concurrent readers
// wait on the in-flight computation without holding the server lock, so
// a price update never serializes the whole query path behind one
// recompute, which allocates only the view: the served PID set is fixed
// at New.
func (t *Server) Distances(token string) (*core.View, error) {
	//p4pvet:ignore ctxflow documented non-Context convenience wrapper; the Context variant is the library API
	return t.DistancesCtx(context.Background(), token)
}

// ViewFor makes the Server an apptracker.ViewProvider for every AS: the
// version-cached Distances view, or nil when access is denied. It is the
// in-process path the simulator and experiments select through.
func (t *Server) ViewFor(int) *core.View {
	v, err := t.Distances("")
	if err != nil {
		return nil
	}
	return v
}

// DistancesCtx is Distances with a caller context, used only for trace
// propagation: a sampled request records whether it paid for the
// recompute itself, waited on another goroutine's singleflight, or hit
// the cache (no span at all). The cache-hit path touches no trace code.
func (t *Server) DistancesCtx(ctx context.Context, token string) (*core.View, error) {
	if !t.authorized(token) {
		return nil, ErrAccessDenied
	}
	t.mu.Lock()
	t.queryCount++
	for {
		if v := t.cachedView; v != nil && t.cachedVer == t.engine.Version() {
			t.mu.Unlock()
			return v, nil
		}
		if done := t.inflight; done != nil {
			// Another goroutine is materializing; wait for it with the
			// lock released, then re-check the cache. The wait span makes
			// a coalesced request distinguishable from the one that paid.
			t.mu.Unlock()
			_, span := trace.StartSpan(ctx, "singleflight_wait")
			<-done
			span.End()
			t.mu.Lock()
			continue
		}
		done := make(chan struct{})
		t.inflight = done
		t.mu.Unlock()
		// If a price update raced the recompute, view.Version lags the
		// engine and the next caller re-materializes; this caller still
		// gets a self-consistent snapshot.
		return t.materialize(ctx, done), nil
	}
}

// materialize runs the singleflight view recompute. Cleanup runs under
// defer: the in-flight marker is cleared and waiters are released even
// when engine.Matrix panics — otherwise one panicking recompute would
// leave t.inflight set and done unclosed, wedging every concurrent and
// future caller forever. The panic itself still propagates to the
// materializing caller; released waiters simply retry.
func (t *Server) materialize(ctx context.Context, done chan struct{}) (view *core.View) {
	_, span := trace.StartSpan(ctx, "recompute")
	defer span.End()
	defer func() {
		t.mu.Lock()
		if view != nil {
			t.cachedView = view
			t.cachedVer = view.Version
			t.recomputes++
		}
		t.inflight = nil
		t.mu.Unlock()
		close(done)
	}()
	start := time.Now()
	if t.testHookPreMatrix != nil {
		t.testHookPreMatrix()
	}
	view = t.engine.Matrix(t.pids)
	t.Metrics.recompute(time.Since(start), view.Version)
	span.SetAttrInt("view_version", view.Version)
	span.SetAttrInt("pids", len(t.pids))
	return view
}

// ViewVersion reports the engine version a Distances call would serve,
// without materializing or serializing a view. The HTTP portal keys its
// rendered responses by it, so a request at an unchanged version is a
// cached byte copy or a 304 Not Modified.
func (t *Server) ViewVersion(token string) (int, error) {
	if !t.authorized(token) {
		return 0, ErrAccessDenied
	}
	return t.engine.Version(), nil
}

// Ready reports whether a materialized view is cached — the readiness
// signal /readyz gates on, so a load balancer sends no traffic to a
// portal that would answer its first request with a cold recompute.
// cmd/itracker primes one materialization at startup.
func (t *Server) Ready() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cachedView != nil
}

// ViewRecomputes reports how many times the external view has been
// materialized from the engine — with version caching and singleflight
// this tracks version bumps, not query volume.
func (t *Server) ViewRecomputes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recomputes
}

// Capabilities serves the capability interface, filtering restricted
// entries for untrusted callers ("A provider may also conduct access
// control for some contents").
func (t *Server) Capabilities(token, kind string) ([]Capability, error) {
	trusted := t.authorized(token)
	var out []Capability
	for _, c := range t.cfg.Capabilities {
		if kind != "" && c.Kind != kind {
			continue
		}
		if c.Restricted && !trusted {
			continue
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].PID < out[j].PID
	})
	return out, nil
}

// LookupPID maps a client IP address to its PID and AS number. Clients
// call this once when they obtain their address.
func (t *Server) LookupPID(ip net.IP) (topology.PID, int, error) {
	if t.pidMap == nil {
		return -1, 0, fmt.Errorf("itracker %s: no PID map configured", t.cfg.Name)
	}
	pid, ok := t.pidMap.Lookup(ip)
	if !ok {
		return -1, 0, fmt.Errorf("itracker %s: %v not in this network", t.cfg.Name, ip)
	}
	return pid, t.cfg.ASN, nil
}

// ObserveAndUpdate is the provider-side measurement hook: install the
// latest per-link P4P traffic observation (bits/sec) and run one
// super-gradient price update. When instrumented, it exports the step
// norm ‖Δp‖₂ and the post-observation MLU — the live convergence
// signals of the paper's dual decomposition.
func (t *Server) ObserveAndUpdate(linkRateBps []float64) {
	t.engine.ObserveTraffic(linkRateBps)
	t.Metrics.update(t.engine.Update())
	t.mu.Lock()
	t.updateCount++
	t.mu.Unlock()
}

// Stats reports how many distance queries and price updates the
// iTracker has served (used by the aggregation-granularity ablation).
func (t *Server) Stats() (queries, updates int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.queryCount, t.updateCount
}
