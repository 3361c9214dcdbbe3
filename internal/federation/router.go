package federation

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"math/rand/v2"
	"net"
	"net/http"
	"slices"
	"strconv"
	"time"

	"p4p/internal/core"
	"p4p/internal/health"
	"p4p/internal/portal"
	"p4p/internal/refresh"
	"p4p/internal/telemetry"
	"p4p/internal/topology"
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
	// backend answers 304 to the ETag of its client's held view and the
	// previous merged encoding is republished untouched.
	TTL time.Duration
	// FailureBackoff is how long a failed shard serves last-known-good
	// before being retried (default 5s).
	FailureBackoff time.Duration
	// Client, when non-nil, is the template the per-shard clients are
	// derived from via WithBase (sharing its HTTP transport, retry
	// policy and metrics; each holds its own view); tests inject short
	// retries and fake transports here.
	Client *portal.Client
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

// RouterMetrics instruments the federation router. Per-shard families
// carry a "shard" label.
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
	clients   []*portal.Client // per shard, in cfg.Shards order
	trusted   map[string]bool
	union     *Union
	entries   *portal.EntryCache[string] // keyed by Merged.Key

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
	shardNames := make([]string, len(cfg.Shards))
	for i, s := range cfg.Shards {
		if s.Name == "" || s.BaseURL == "" {
			return nil, fmt.Errorf("federation: shard needs both a name and a base URL (got name=%q url=%q)", s.Name, s.BaseURL)
		}
		if slices.Contains(shardNames[:i], s.Name) {
			return nil, fmt.Errorf("federation: duplicate shard name %q", s.Name)
		}
		if s.MaxPID < s.MinPID {
			return nil, fmt.Errorf("federation: shard %q: MaxPID %d < MinPID %d", s.Name, s.MaxPID, s.MinPID)
		}
		shardNames[i] = s.Name
	}
	if err := checkCircuits(shardNames, cfg.Circuits); err != nil {
		return nil, err
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
		rt.clients = append(rt.clients, c)
	}
	rt.union = NewUnion(shardNames, cfg.Circuits, rt.timing, rt.fetchShard, rt.observe)
	rt.entries = portal.NewEntryCache(rt.etag)
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

// timing is the one set of windows every cell in the union runs on.
func (rt *Router) timing() refresh.Timing {
	return refresh.Timing{TTL: rt.cfg.TTL, FailureBackoff: rt.cfg.FailureBackoff, Now: rt.nowFn}
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

// current returns the merged state to serve: the union's, behind the
// router's own auth.
func (s source) current(ctx context.Context, token string) (*Merged, error) {
	rt := s.rt
	if !rt.admits(token) {
		return nil, portal.ErrAccessDenied
	}
	tm := rt.timing()
	r := rt.union.Get(ctx, tm)
	if r.Wait != nil {
		// Cold start behind another request's first refresh: wait for it
		// instead of answering a 503 the winner is about to obsolete.
		select {
		case <-r.Wait:
			r.Value = rt.union.Current(tm)
		case <-ctx.Done():
		}
	}
	if r.Value == nil {
		return nil, errNoShardViews
	}
	return r.Value, nil
}

// Entry implements portal.ViewSource: the form's entry for the published
// merge, rendered on the first request for it. The key, not the merged
// Version, identifies the merge: a shard restart can change the key
// without changing the sum of versions.
func (s source) Entry(ctx context.Context, token, form string) (*portal.Entry, error) {
	m, err := s.current(ctx, token)
	if err != nil {
		return nil, err
	}
	return s.rt.entries.Get(ctx, form, m.Key, s.rt.portal.CacheMetrics,
		func(context.Context) (string, *core.View, error) { return m.Key, m.View, nil })
}

// View implements portal.ViewSource.
func (s source) View(ctx context.Context, token string) (*core.View, error) {
	ent, err := s.current(ctx, token)
	if err != nil {
		return nil, err
	}
	return ent.View, nil
}

// LookupPID implements portal.ViewSource by proxying shard by shard: PID
// assignment is per-provider state the router does not replicate, so it
// asks each backend in configuration order and returns the first answer.
func (s source) LookupPID(ctx context.Context, token string, ip net.IP) (portal.PIDLookupWire, error) {
	if !s.rt.admits(token) {
		return portal.PIDLookupWire{}, portal.ErrAccessDenied
	}
	for _, c := range s.rt.clients {
		if out, err := c.LookupPIDContext(ctx, ip); err == nil {
			return out, nil
		}
	}
	return portal.PIDLookupWire{}, errors.New("no shard maps this IP")
}

// observe is the union's per-pass callback: each shard read's counter
// increments go to the labeled families, so /metrics tracks the
// per-shard stats exactly; a new merge moves the merge families; a
// failed one is an Error line (the merged cell's backoff paces them).
func (rt *Router) observe(counted []refresh.Stats, merged *Merged, mergeErr error) {
	if m := rt.Metrics; m != nil {
		for i, d := range counted {
			name := rt.cfg.Shards[i].Name
			m.ShardRefreshes.With(name).Add(float64(d.Refreshes))
			m.ShardFailures.With(name).Add(float64(d.Failures))
			m.ShardStaleServes.With(name).Add(float64(d.StaleServes))
		}
		if merged != nil {
			m.Merges.Inc()
			m.MergedPIDs.Set(float64(len(merged.View.PIDs)))
			m.ShardsServing.Set(float64(merged.Serving))
		}
	}
	if l := rt.Telemetry.Logger; l != nil && mergeErr != nil {
		l.Error("federation merge failed, keeping previous view",
			slog.String("error", mergeErr.Error()))
	}
}

// fetchShard is the union's member fetch: one backend round-trip plus
// the PID range gate.
func (rt *Router) fetchShard(ctx context.Context, i int) (MemberView, error) {
	sc, c := rt.cfg.Shards[i], rt.clients[i]
	v, err := c.DistancesContext(ctx)
	if err == nil {
		err = sc.checkRange(v)
	}
	if err != nil {
		if l := rt.Telemetry.Logger; l != nil {
			l.Warn("shard refresh failed, serving last-known-good",
				slog.String("shard", sc.Name),
				slog.String("error", err.Error()))
		}
		return MemberView{}, err
	}
	return MemberView{View: v, Validator: c.ViewETag()}, nil
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

// etag composes the federation validator of one form of the merge with
// this key, unquoted: "fed-<boot-nonce>-<fnv64a(key)>-<form>".
func (rt *Router) etag(key, form string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return fmt.Sprintf("fed-%s-%016x-%s", rt.bootNonce, h.Sum64(), form)
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
	out := RouterStats{Shards: make([]ShardStatus, 0, len(rt.cfg.Shards))}
	for i, m := range rt.union.Members(tm) {
		st := ShardStatus{
			Name:    rt.cfg.Shards[i].Name,
			URL:     rt.cfg.Shards[i].BaseURL,
			HasView: m.Held,
			Fresh:   m.Fresh,
			ETag:    m.Value.Validator,
			ShardStats: ShardStats{
				Refreshes:   m.Stats.Refreshes,
				Failures:    m.Stats.Failures,
				StaleServes: m.Stats.StaleServes,
			},
		}
		if m.LastErr != nil {
			st.LastError = m.LastErr.Error()
		}
		if m.Held {
			st.Version = m.Value.View.Version
			st.PIDs = len(m.Value.View.PIDs)
		}
		out.Shards = append(out.Shards, st)
	}
	if ent := rt.union.Current(tm); ent != nil {
		out.Merged = &MergedStatus{
			Version:       ent.View.Version,
			PIDs:          len(ent.View.PIDs),
			ShardsServing: ent.Serving,
			ShardsFresh:   ent.Fresh,
			ETag:          strconv.Quote(rt.etag(ent.Key, "raw")),
		}
	}
	return out
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	portal.WriteJSON(rt.portal.Telemetry.Logger, w, r, http.StatusOK, rt.Stats())
}

// Ready reports whether the router can serve: at least one shard holds
// a view (fresh or last-known-good). The detail string distinguishes a
// full federation from a degraded one for /readyz readers.
func (rt *Router) Ready() (bool, string) {
	serving, fresh := 0, 0
	for _, m := range rt.union.Members(rt.timing()) {
		if m.Held {
			serving++
			if m.Fresh {
				fresh++
			}
		}
	}
	detail := fmt.Sprintf("%d/%d shards serving (%d fresh)", serving, len(rt.cfg.Shards), fresh)
	return serving > 0, detail
}
