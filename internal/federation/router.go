package federation

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"p4p/internal/core"
	"p4p/internal/health"
	"p4p/internal/portal"
	"p4p/internal/refresh"
	"p4p/internal/telemetry"
	"p4p/internal/topology"
	"p4p/internal/trace"
)

// ShardConfig names one backend portal and the PID shard it speaks for.
type ShardConfig struct {
	// Name is the shard's identity in circuits, stats, and metrics.
	Name string
	// BaseURL is the backend portal root.
	BaseURL string
	// Token, when non-empty, is presented to the backend (the router
	// holds the trust relationship with each provider).
	Token string
	// MinPID/MaxPID, when not both zero, declare the inclusive PID
	// range this shard may serve; a fetched view containing a PID
	// outside the range is rejected as misconfigured (or hostile) and
	// the last-known-good view kept instead. Merge additionally rejects
	// any PID served by two shards, so the range gate is defense ahead
	// of that collision, attributable to the offending backend.
	MinPID, MaxPID topology.PID
}

// Config parameterizes a Router.
type Config struct {
	// Shards lists the backend portals; at least one is required and
	// names must be unique.
	Shards []ShardConfig
	// Circuits joins the shards' PID spaces (see Circuit). Each circuit
	// must reference configured shard names.
	Circuits []Circuit
	// TrustedTokens, when non-empty, restricts the distance interfaces
	// to callers presenting one of these tokens, mirroring the backend
	// portals' own access model.
	TrustedTokens []string
	// TTL is how long a merged view serves before shard revalidation
	// (default 30s). Revalidation is cheap when nothing changed: each
	// backend answers 304 off the client's per-URL ETag cache and the
	// previous merged encoding is republished untouched.
	TTL time.Duration
	// RefreshTimeout bounds one shard fetch on top of the client's
	// retry policy (default 10s).
	RefreshTimeout time.Duration
	// FailureBackoff is how long a failed shard serves last-known-good
	// before being retried (default 5s).
	FailureBackoff time.Duration
	// Client, when non-nil, is the template the per-shard clients are
	// derived from via WithBase (sharing its HTTP transport, retry
	// policy, metrics, and URL-keyed ETag cache); tests inject short
	// retries and fake transports here.
	Client *portal.Client
}

// shardState is one backend portal: its client and the cell holding its
// last-known-good view.
type shardState struct {
	cfg    ShardConfig
	client *portal.Client
	cell   refresh.Cell[shardView]
}

// shardView is what one backend fetch yields: the view and the client's
// validator for it ("" when the backend sent none).
type shardView struct {
	view *core.View
	etag string
}

// ShardStats counts one shard's refresh behavior (see ShardStatus for
// the /stats wire form).
type ShardStats struct {
	// Refreshes counts successful view fetches (including 304
	// revalidations inside the client).
	Refreshes int64 `json:"refreshes"`
	// Failures counts fetch attempts that exhausted the client's
	// retries or returned an out-of-range view.
	Failures int64 `json:"failures"`
	// StaleServes counts merge passes that served this shard's
	// last-known-good view past its TTL (backend slow or down).
	StaleServes int64 `json:"stale_serves"`
}

// mergedEntry is one published federation state: the merged view and
// both rendered forms. Immutable once stored.
type mergedEntry struct {
	// key fingerprints the inputs: per-shard ETag + version, or
	// "absent". Same key ⇒ same merged bytes, so a revalidation pass
	// where every backend said 304 republishes the previous encoding.
	key           string
	view          *core.View
	shardsServing int
	shardsFresh   int
	raw, ranks    *portal.Entry
}

// RouterMetrics instruments the federation router. Per-shard families
// carry a "shard" label. All recording methods are nil-safe.
type RouterMetrics struct {
	// ShardRefreshes counts successful per-shard view fetches.
	ShardRefreshes *telemetry.CounterVec
	// ShardFailures counts per-shard fetches that exhausted retries or
	// returned an invalid view.
	ShardFailures *telemetry.CounterVec
	// ShardStaleServes counts merge passes serving a shard's
	// last-known-good view past its TTL.
	ShardStaleServes *telemetry.CounterVec
	// Merges counts merged-view rebuilds (input fingerprint changed).
	Merges *telemetry.Counter
	// MergedPIDs is the PID count of the current merged view.
	MergedPIDs *telemetry.Gauge
	// ShardsServing is how many shards contributed a view to the
	// current merge (fresh or stale).
	ShardsServing *telemetry.Gauge
}

// NewRouterMetrics registers the federation router metric families.
func NewRouterMetrics(r *telemetry.Registry) *RouterMetrics {
	return &RouterMetrics{
		ShardRefreshes: r.CounterVec("p4p_federation_shard_refreshes_total",
			"Successful backend view fetches (including 304 revalidations).", "shard"),
		ShardFailures: r.CounterVec("p4p_federation_shard_failures_total",
			"Backend fetches that exhausted retries or returned an invalid view.", "shard"),
		ShardStaleServes: r.CounterVec("p4p_federation_shard_stale_serves_total",
			"Merge passes serving a shard's last-known-good view past its TTL.", "shard"),
		Merges: r.Counter("p4p_federation_merges_total",
			"Merged-view rebuilds (per-shard input fingerprint changed)."),
		MergedPIDs: r.Gauge("p4p_federation_merged_pids",
			"PID count of the current merged view."),
		ShardsServing: r.Gauge("p4p_federation_shards_serving",
			"Shards contributing a view (fresh or stale) to the current merge."),
	}
}

// mirrorShard adds one shard read's counter increments to the labeled
// families, so /metrics tracks the per-shard stats exactly.
func (m *RouterMetrics) mirrorShard(name string, d refresh.Stats) {
	if m == nil {
		return
	}
	m.ShardRefreshes.With(name).Add(float64(d.Refreshes))
	m.ShardFailures.With(name).Add(float64(d.Failures))
	m.ShardStaleServes.With(name).Add(float64(d.StaleServes))
}

func (m *RouterMetrics) merge(pids, serving int) {
	if m != nil {
		m.Merges.Inc()
		m.MergedPIDs.Set(float64(pids))
		m.ShardsServing.Set(float64(serving))
	}
}

func (m *RouterMetrics) serving(n int) {
	if m != nil {
		m.ShardsServing.Set(float64(n))
	}
}

// Router is the federation front end: it owns the shard map, keeps one
// last-known-good view per backend portal, and is the portal handler
// over their merge —
//
//	GET  /p4p/v1/distances[?form=ranks]
//	GET  /p4p/v1/distances/batch?pairs=src-dst,...
//	POST /p4p/v1/distances/batch
//	GET  /p4p/v1/pid?ip=a.b.c.d   (proxied shard by shard)
//	GET  /healthz, /readyz, /stats
//
// so an appTracker cannot tell it from a single very wide iTracker.
// The federation ETag fingerprints every shard's own validator: it
// changes iff some backend's view (or reachability) changed, and a
// revalidation pass where every backend answers 304 republishes the
// previous encoding byte-for-byte. Shards degrade independently: a
// dead backend keeps serving its last-known-good view, and /readyz
// fails only when no shard has ever produced one. Policy and
// capability interfaces stay per-provider and are deliberately not
// proxied — they are meaningless merged.
type Router struct {
	// Telemetry instruments and logs every route (it is the portal
	// handler's middleware); inert until its fields are set.
	Telemetry *telemetry.Middleware
	// Metrics, when non-nil, instruments shard refreshes and merges
	// (see NewRouterMetrics).
	Metrics *RouterMetrics

	cfg       Config
	portal    *portal.Handler
	bootNonce string
	shards    []*shardState
	trusted   map[string]bool
	merged    refresh.Cell[*mergedEntry]

	// nowFn, when non-nil, replaces time.Now so tests drive TTL and
	// backoff windows with a fake clock instead of sleeping.
	nowFn func() time.Time
}

// NewRouter builds the federation front end. Configuration errors —
// no shards, duplicate names, circuits referencing unknown shards —
// fail here, loudly, not at serve time.
func NewRouter(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("federation: no shards configured")
	}
	names := make(map[string]bool, len(cfg.Shards))
	for _, s := range cfg.Shards {
		if s.Name == "" || s.BaseURL == "" {
			return nil, fmt.Errorf("federation: shard needs both a name and a base URL (got name=%q url=%q)", s.Name, s.BaseURL)
		}
		if names[s.Name] {
			return nil, fmt.Errorf("federation: duplicate shard name %q", s.Name)
		}
		if s.MaxPID < s.MinPID {
			return nil, fmt.Errorf("federation: shard %q: MaxPID %d < MinPID %d", s.Name, s.MaxPID, s.MinPID)
		}
		names[s.Name] = true
	}
	for _, c := range cfg.Circuits {
		if !names[c.A] || !names[c.B] {
			return nil, fmt.Errorf("federation: circuit %s:%d-%s:%d references an unknown shard", c.A, c.APID, c.B, c.BPID)
		}
		if c.Cost < 0 || math.IsNaN(c.Cost) {
			return nil, fmt.Errorf("federation: circuit %s:%d-%s:%d has invalid cost %v", c.A, c.APID, c.B, c.BPID, c.Cost)
		}
	}
	base := cfg.Client
	if base == nil {
		base = portal.NewClient("", "")
	}
	rt := &Router{
		cfg:       cfg,
		bootNonce: fmt.Sprintf("%08x", rand.Uint32()),
		trusted:   map[string]bool{},
	}
	for _, tok := range cfg.TrustedTokens {
		rt.trusted[tok] = true
	}
	for _, sc := range cfg.Shards {
		c := base.WithBase(sc.BaseURL)
		if sc.Token != "" {
			c.Token = sc.Token
		}
		s := &shardState{cfg: sc, client: c}
		s.cell.Fetch = func(ctx context.Context) (shardView, error) { return rt.fetchShard(ctx, s) }
		rt.shards = append(rt.shards, s)
	}
	rt.merged.Fetch = rt.refreshMerged
	rt.portal = portal.NewSourceHandler(source{rt})
	rt.Telemetry = &rt.portal.Telemetry
	rt.portal.Handle("GET /stats", rt.Telemetry.RouteFunc("stats", rt.handleStats))
	rt.portal.Handle("GET /healthz", health.Handler())
	rt.portal.Handle("GET /readyz", health.ReadyHandler(health.Check{Name: "federation_view", Probe: rt.Ready}))
	return rt, nil
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.portal.ServeHTTP(w, r)
}

// timing is the one set of windows every cell in the router runs on.
func (rt *Router) timing() refresh.Timing {
	return refresh.Timing{TTL: rt.cfg.TTL, RefreshTimeout: rt.cfg.RefreshTimeout, FailureBackoff: rt.cfg.FailureBackoff, Now: rt.nowFn}
}

// admits reports whether a trust token may use the distance interfaces,
// mirroring the backend portals' own access model.
func (rt *Router) admits(token string) bool {
	return len(rt.trusted) == 0 || rt.trusted[token] // no tokens configured = open deployment
}

// source is the Router as the portal handler's ViewSource: auth against
// the router's own trusted tokens, the merged entry as the view, and PID
// lookup proxied to the backends.
type source struct{ rt *Router }

// errNoShardViews is the 503 before the first successful merge: every
// shard down since boot, or shards that cannot be merged.
var errNoShardViews = fmt.Errorf("%w: no merged federation view yet", portal.ErrUnavailable)

// current returns the merged entry to serve: the published one inside
// its TTL (one atomic load and a clock read), else whatever the merged
// cell's refresh produces, or last-known-good while one runs.
//
//p4p:hotpath
func (s source) current(ctx context.Context, token string) (*mergedEntry, error) {
	rt := s.rt
	if !rt.admits(token) {
		return nil, portal.ErrAccessDenied
	}
	tm := rt.timing()
	r := rt.merged.Get(ctx, tm)
	if r.Wait != nil {
		// Cold start behind another request's first refresh: wait for it
		// instead of answering a 503 the winner is about to obsolete.
		select {
		case <-r.Wait:
			r.Value = rt.merged.Snapshot(tm).Value
		case <-ctx.Done():
		}
	}
	if r.Value == nil {
		return nil, errNoShardViews
	}
	return r.Value, nil
}

// Entry implements portal.ViewSource.
//
//p4p:hotpath
func (s source) Entry(ctx context.Context, token, form string) (*portal.Entry, error) {
	ent, err := s.current(ctx, token)
	if err != nil {
		return nil, err
	}
	if form == "ranks" {
		return ent.ranks, nil
	}
	return ent.raw, nil
}

// View implements portal.ViewSource.
//
//p4p:hotpath
func (s source) View(ctx context.Context, token string) (*core.View, error) {
	ent, err := s.current(ctx, token)
	if err != nil {
		return nil, err
	}
	return ent.view, nil
}

// LookupPID implements portal.ViewSource by proxying shard by shard: PID
// assignment is per-provider state the router does not replicate, so it
// asks each backend in configuration order and returns the first answer.
func (s source) LookupPID(ctx context.Context, token string, ip net.IP) (portal.PIDLookupWire, error) {
	if !s.rt.admits(token) {
		return portal.PIDLookupWire{}, portal.ErrAccessDenied
	}
	for _, sh := range s.rt.shards {
		if out, err := sh.client.LookupPIDContext(ctx, ip); err == nil {
			return out, nil
		}
	}
	return portal.PIDLookupWire{}, errors.New("no shard maps this IP")
}

// refreshMerged is the merged cell's fetch: it revalidates every shard
// concurrently through the shard's own cell, then publishes the merge
// of whatever views exist. Shards in failure backoff, and shards that
// fail now, contribute their last-known-good view; only a shard with
// no view at all drops out of the merge. Any error — nothing to merge,
// overlapping PIDs, an unencodable matrix — is a failed refresh: the
// cell keeps the previous entry and retries after the failure backoff.
//
//p4p:coldpath
func (rt *Router) refreshMerged(ctx context.Context) (_ *mergedEntry, err error) {
	ctx, span := trace.StartSpan(ctx, "federation_refresh")
	defer span.End()
	defer func() {
		if err != nil {
			span.RecordError(err)
		}
	}()
	tm := rt.timing()
	reads := make([]refresh.Read[shardView], len(rt.shards))
	var wg sync.WaitGroup
	for i, s := range rt.shards {
		wg.Add(1)
		go func(i int, s *shardState) {
			defer wg.Done()
			reads[i] = s.cell.Get(ctx, tm)
		}(i, s)
	}
	wg.Wait()

	views := make([]ShardView, 0, len(rt.shards))
	var keyb strings.Builder
	fresh := 0
	for i, s := range rt.shards {
		r := reads[i]
		rt.Metrics.mirrorShard(s.cfg.Name, r.Counted)
		if !r.Held {
			fmt.Fprintf(&keyb, "%s=absent;", s.cfg.Name)
			continue
		}
		fmt.Fprintf(&keyb, "%s=%s#%d;", s.cfg.Name, r.Value.etag, r.Value.view.Version)
		views = append(views, ShardView{Name: s.cfg.Name, View: r.Value.view})
		if r.Fresh {
			fresh++
		}
	}
	serving := len(views)
	span.SetAttrInt("shards_serving", serving)
	if serving == 0 {
		rt.Metrics.serving(0)
		return nil, errNoShardViews
	}
	key := keyb.String()
	if prev := rt.merged.Snapshot(tm).Value; prev != nil && prev.key == key {
		// Nothing changed: republish the previous encoding under a new
		// TTL window. Bodies and header slices are shared, immutable.
		ent := *prev
		ent.shardsServing, ent.shardsFresh = serving, fresh
		return &ent, nil
	}
	ent, err := rt.render(views, key)
	if err != nil {
		// Two shards serving the same PID (or a matrix that will not
		// encode): a deployment error, not a transient. Keep the previous
		// merge (if any) rather than serve a view we know is wrong.
		if l := rt.Telemetry.Logger; l != nil {
			l.Error("federation merge failed, keeping previous view",
				slog.String("error", err.Error()))
		}
		return nil, err
	}
	ent.shardsServing, ent.shardsFresh = serving, fresh
	rt.Metrics.merge(len(ent.view.PIDs), serving)
	span.SetAttrInt("merged_pids", len(ent.view.PIDs))
	return ent, nil
}

// fetchShard is a shard cell's fetch: one backend round-trip plus the
// PID range gate.
//
//p4p:coldpath
func (rt *Router) fetchShard(ctx context.Context, s *shardState) (shardView, error) {
	v, err := s.client.DistancesContext(ctx)
	if err == nil {
		err = s.cfg.checkRange(v)
	}
	if err != nil {
		if l := rt.Telemetry.Logger; l != nil {
			l.Warn("shard refresh failed, serving last-known-good",
				slog.String("shard", s.cfg.Name),
				slog.String("error", err.Error()))
		}
		return shardView{}, err
	}
	return shardView{view: v, etag: s.client.ViewETag("raw")}, nil
}

// checkRange rejects a view whose PIDs fall outside the shard's
// declared range.
func (sc ShardConfig) checkRange(v *core.View) error {
	if sc.MinPID == 0 && sc.MaxPID == 0 {
		return nil
	}
	for _, pid := range v.PIDs {
		if pid < sc.MinPID || pid > sc.MaxPID {
			return fmt.Errorf("federation: shard %q served PID %d outside its declared range [%d,%d]",
				sc.Name, pid, sc.MinPID, sc.MaxPID)
		}
	}
	return nil
}

// render merges the shard views, encodes both wire forms, and composes
// the federation ETags from the input fingerprint.
//
//p4p:coldpath runs once per input change; the fmt work is the point of pre-rendering
func (rt *Router) render(views []ShardView, key string) (*mergedEntry, error) {
	v, err := Merge(views, rt.cfg.Circuits)
	if err != nil {
		return nil, err
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	entry := func(form string) (*portal.Entry, error) {
		body, err := portal.EncodeView(v, form)
		if err != nil {
			return nil, fmt.Errorf("federation: encode %s view: %w", form, err)
		}
		return portal.NewEntry(v.Version, fmt.Sprintf("fed-%s-%016x-%s", rt.bootNonce, h.Sum64(), form), body), nil
	}
	ent := &mergedEntry{key: key, view: v}
	if ent.raw, err = entry("raw"); err != nil {
		return nil, err
	}
	if ent.ranks, err = entry("ranks"); err != nil {
		return nil, err
	}
	return ent, nil
}

// ShardStatus is one shard's row in the /stats body.
type ShardStatus struct {
	Name    string `json:"name"`
	URL     string `json:"url"`
	HasView bool   `json:"has_view"`
	// Fresh is true when the view was fetched within the TTL.
	Fresh     bool   `json:"fresh"`
	Version   int    `json:"version,omitempty"`
	PIDs      int    `json:"pids,omitempty"`
	ETag      string `json:"etag,omitempty"`
	LastError string `json:"last_error,omitempty"`
	ShardStats
}

// MergedStatus describes the published merge in the /stats body.
type MergedStatus struct {
	Version       int    `json:"version"`
	PIDs          int    `json:"pids"`
	ShardsServing int    `json:"shards_serving"`
	ShardsFresh   int    `json:"shards_fresh"`
	ETag          string `json:"etag"`
}

// RouterStats is the /stats body.
type RouterStats struct {
	Shards []ShardStatus `json:"shards"`
	Merged *MergedStatus `json:"merged,omitempty"`
}

// Stats snapshots per-shard and merged state for /stats.
func (rt *Router) Stats() RouterStats {
	tm := rt.timing()
	out := RouterStats{Shards: make([]ShardStatus, 0, len(rt.shards))}
	for _, s := range rt.shards {
		cs := s.cell.Snapshot(tm)
		st := ShardStatus{
			Name:    s.cfg.Name,
			URL:     s.cfg.BaseURL,
			HasView: cs.Held,
			Fresh:   cs.Fresh,
			ETag:    cs.Value.etag,
			ShardStats: ShardStats{
				Refreshes:   cs.Stats.Refreshes,
				Failures:    cs.Stats.Failures,
				StaleServes: cs.Stats.StaleServes,
			},
		}
		if cs.LastErr != nil {
			st.LastError = cs.LastErr.Error()
		}
		if cs.Held {
			st.Version = cs.Value.view.Version
			st.PIDs = len(cs.Value.view.PIDs)
		}
		out.Shards = append(out.Shards, st)
	}
	if ent := rt.merged.Snapshot(tm).Value; ent != nil {
		out.Merged = &MergedStatus{
			Version:       ent.view.Version,
			PIDs:          len(ent.view.PIDs),
			ShardsServing: ent.shardsServing,
			ShardsFresh:   ent.shardsFresh,
			ETag:          ent.raw.ETag,
		}
	}
	return out
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	rt.portal.WriteJSON(w, r, http.StatusOK, rt.Stats())
}

// Ready reports whether the router can serve: at least one shard holds
// a view (fresh or last-known-good). The detail string distinguishes a
// full federation from a degraded one for /readyz readers.
func (rt *Router) Ready() (bool, string) {
	tm := rt.timing()
	serving, fresh := 0, 0
	for _, s := range rt.shards {
		if cs := s.cell.Snapshot(tm); cs.Held {
			serving++
			if cs.Fresh {
				fresh++
			}
		}
	}
	detail := fmt.Sprintf("%d/%d shards serving (%d fresh)", serving, len(rt.shards), fresh)
	return serving > 0, detail
}
