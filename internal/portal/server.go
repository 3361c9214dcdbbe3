package portal

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"strconv"
	"strings"

	"p4p/internal/core"
	"p4p/internal/itracker"
	"p4p/internal/telemetry"
	"p4p/internal/topology"
)

// tokenHeader carries the caller's trust token.
const tokenHeader = "X-P4P-Token"

// tokenHeaderCanon is tokenHeader in canonical MIME form. Header.Get
// re-canonicalizes non-canonical keys on every call, which allocates;
// incoming headers are stored canonically, so reading with this key is
// equivalent and allocation-free.
const tokenHeaderCanon = "X-P4p-Token"

// maxBatchPairs bounds one batch request; anything larger should fetch
// the full matrix instead.
const maxBatchPairs = 65536

// maxBatchBody bounds the POST body of a batch request.
const maxBatchBody = 8 << 20

// Header values shared by every distances response (header maps hold
// []string; sharing immutable slices keeps the steady-state path
// allocation-free).
var (
	jsonCTVals     = []string{"application/json"}
	binaryCTVals   = []string{BinaryViewType}
	varyAcceptVals = []string{"Accept"}
)

// ErrAccessDenied is the ViewSource outcome the handler answers 403: the
// caller's trust token does not admit it to the interface.
var ErrAccessDenied = itracker.ErrAccessDenied

// ErrUnavailable is the ViewSource outcome the handler answers 503: the
// source holds no view yet (a federation with every shard down since
// boot). Sources wrap it with what is missing.
var ErrUnavailable = errors.New("no view available")

// ViewSource is what the Handler serves from. The source owns the
// caller's auth outcome (ErrAccessDenied), freshness, and ETag
// composition; the handler owns parsing, limits, conditional GET, and
// the wire. Entry and View run on every request and must not allocate
// while the source's current view is unchanged.
type ViewSource interface {
	// Entry returns the current rendered response for form "raw",
	// "ranks" or FormBinary (the handler has validated it).
	Entry(ctx context.Context, token, form string) (*Entry, error)
	// View returns the current view, for the batch endpoint.
	View(ctx context.Context, token string) (*core.View, error)
	// LookupPID maps a client IP to its PID and AS number.
	LookupPID(ctx context.Context, token string, ip net.IP) (PIDLookupWire, error)
}

// Entry is one fully-rendered distances response: the encoded body plus
// precomputed header value slices, so serving it writes no new strings.
// Entries are immutable once published.
type Entry struct {
	// Version is the view version the body encodes.
	Version int
	// ETag is the quoted validator served with the body.
	ETag string

	body     []byte
	ctVals   []string // the body's media type: binary by its magic, else JSON
	etagVals []string // {ETag}
	clenVals []string // {strconv.Itoa(len(body))}
}

// newEntry renders the headers for an encoded body once, so serving the
// entry later formats nothing. tag is the source's unquoted validator.
func newEntry(version int, tag string, body []byte) *Entry {
	etag := fmt.Sprintf("%q", tag)
	ct := jsonCTVals
	if bytes.HasPrefix(body, []byte(binaryMagic)) {
		ct = binaryCTVals
	}
	return &Entry{
		Version:  version,
		ETag:     etag,
		body:     body,
		ctVals:   ct,
		etagVals: []string{etag},
		clenVals: []string{strconv.Itoa(len(body))},
	}
}

// Handler serves a ViewSource over HTTP. Over an iTracker (NewHandler)
// that is the full provider portal:
//
//	GET  /p4p/v1/policy
//	GET  /p4p/v1/distances[?form=ranks]
//	GET  /p4p/v1/distances/batch?pairs=src-dst,...
//	POST /p4p/v1/distances/batch
//	GET  /p4p/v1/capabilities[?kind=...]
//	GET  /p4p/v1/pid?ip=a.b.c.d
//
// Over any other source (NewSourceHandler) it is the distances, batch
// and pid routes only: policy and capabilities are per-provider and
// meaningless merged.
//
// All responses are JSON, except that a raw distances request whose
// Accept lists BinaryViewType gets that rendering; errors use
// {"error": "..."} envelopes. The distances endpoint is
// version-cacheable: responses carry the source's ETag (one per
// rendering), and requests presenting the current one via If-None-Match
// get 304 Not Modified with no body, so refreshing appTrackers pay
// nothing when the view has not changed.
//
// The 200 path is cached too: the source's EntryCache renders the
// encoded body and its ETag/Content-Length header values once per view
// and form, on the first request for that form, so a steady-state
// response is a byte copy that never touches json.Marshal (see
// DESIGN.md, "Serving kernel").
//
// Every route runs through Telemetry, which mints a request ID (echoed
// in X-Request-ID and carried on the request context when a Logger is
// attached), records per-route request counts, status classes, and
// latency histograms, counts 304 ETag hits, and emits one structured
// log line per request. Set Telemetry.Metrics and Telemetry.Logger
// after NewHandler, before serving.
type Handler struct {
	// Tracker is the iTracker behind NewHandler's policy and capability
	// routes; nil over any other source.
	Tracker *itracker.Server
	// Telemetry instruments and logs every route; its zero value is
	// inert. Set its fields, do not replace the struct (route
	// registrations live inside it).
	Telemetry telemetry.Middleware
	// CacheMetrics, when non-nil, counts the source's rendered-entry
	// cache hits and misses on the distances path (see NewCacheMetrics).
	CacheMetrics *CacheMetrics
	mux          *http.ServeMux
	src          ViewSource
}

// trackerSource is the iTracker-backed ViewSource. The iTracker's own
// version-keyed singleflight decides freshness (a reader must never get
// the previous version while a recompute runs, so there is no
// stale-while-revalidate here); this layer only keeps the rendered
// entry per form, keyed by engine version.
type trackerSource struct {
	h       *Handler // for CacheMetrics, which is set after construction
	tr      *itracker.Server
	entries *EntryCache[int]
}

// CacheMetrics counts how a source's EntryCache behaves. All recording
// methods are nil-safe.
type CacheMetrics struct {
	// Hits counts distances responses served as a cached byte copy.
	Hits *telemetry.Counter
	// Misses counts distances requests that found no entry for the
	// current view and form, and rendered it or waited for its render.
	Misses *telemetry.Counter
}

// NewCacheMetrics registers the encoded-response-cache metric families.
func NewCacheMetrics(r *telemetry.Registry) *CacheMetrics {
	return &CacheMetrics{
		Hits: r.Counter("p4p_portal_encoded_cache_hits_total",
			"Distances responses served from the encoded-response cache."),
		Misses: r.Counter("p4p_portal_encoded_cache_misses_total",
			"Distances requests that re-encoded the view (version bump or cold cache)."),
	}
}

func (m *CacheMetrics) hit() {
	if m != nil {
		m.Hits.Inc()
	}
}

func (m *CacheMetrics) miss() {
	if m != nil {
		m.Misses.Inc()
	}
}

// NewHandler builds the HTTP handler for an iTracker. Its ETags are
// "<boot-nonce>-v<engine version>-<form>": the nonce distinguishes this
// process's ETags from a restarted portal at the same engine version
// (version counters restart at zero, so without it a client's stale
// If-None-Match could spuriously revalidate against a fresh process
// serving different data).
func NewHandler(tr *itracker.Server) *Handler {
	nonce := fmt.Sprintf("%08x", rand.Uint32())
	src := &trackerSource{tr: tr, entries: NewEntryCache(func(version int, form string) string {
		return fmt.Sprintf("%s-v%d-%s", nonce, version, form)
	})}
	h := NewSourceHandler(src)
	src.h = h
	h.Tracker = tr
	h.route("GET /p4p/v1/policy", "policy", h.handlePolicy)
	h.route("GET /p4p/v1/capabilities", "capabilities", h.handleCapabilities)
	return h
}

// NewSourceHandler builds the distances, batch and pid routes over src.
func NewSourceHandler(src ViewSource) *Handler {
	h := &Handler{mux: http.NewServeMux(), src: src}
	h.route("GET /p4p/v1/distances", "distances", h.handleDistances)
	h.route("GET /p4p/v1/distances/batch", "distances_batch", h.handleBatch)
	h.route("POST /p4p/v1/distances/batch", "distances_batch", h.handleBatch)
	h.route("GET /p4p/v1/pid", "pid", h.handlePID)
	return h
}

func (h *Handler) route(pattern, name string, fn http.HandlerFunc) {
	h.Handle(pattern, h.Telemetry.RouteFunc(name, fn))
}

// Handle mounts an extra route on the handler's mux, for owners that
// serve their own endpoints (stats, probes) beside the portal's.
func (h *Handler) Handle(pattern string, next http.Handler) {
	h.mux.Handle(pattern, next)
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

// WriteJSON encodes v to a buffer before touching the ResponseWriter,
// so an encoding failure (e.g. a NaN sneaking into a matrix) yields a
// clean 500 error envelope instead of a truncated HTTP 200. Buffering
// also supplies Content-Length, keeping responses out of chunked
// transfer encoding. It is the one JSON response writer: the handler's
// routes, the federation router and the appTracker all answer through
// it. logger, when non-nil, records encoding failures.
func WriteJSON(logger *slog.Logger, w http.ResponseWriter, r *http.Request, status int, v interface{}) {
	body, err := json.Marshal(v)
	if err != nil {
		if logger != nil {
			logger.Error("encode response",
				slog.String("request_id", telemetry.RequestID(r.Context())),
				slog.String("error", err.Error()))
		}
		status = http.StatusInternalServerError
		body, _ = json.Marshal(errorWire{Error: "response encoding failed"})
	}
	body = append(body, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}

func (h *Handler) writeErr(w http.ResponseWriter, r *http.Request, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrAccessDenied):
		status = http.StatusForbidden
	case errors.Is(err, ErrUnavailable):
		status = http.StatusServiceUnavailable
	}
	WriteJSON(h.Telemetry.Logger, w, r, status, errorWire{Error: err.Error()})
}

func (h *Handler) handlePolicy(w http.ResponseWriter, r *http.Request) {
	pol, err := h.Tracker.PolicyFor(r.Header.Get(tokenHeaderCanon))
	if err != nil {
		h.writeErr(w, r, err)
		return
	}
	WriteJSON(h.Telemetry.Logger, w, r, http.StatusOK, pol)
}

// ETagMatches reports whether an If-None-Match header value matches the
// given ETag, honoring comma-separated lists, W/ weak prefixes, and the
// "*" wildcard. It scans in place — no splitting — because it runs on
// the revalidation fast path.
func ETagMatches(header, etag string) bool {
	for header != "" {
		var part string
		part, header, _ = strings.Cut(header, ",")
		part = strings.TrimPrefix(strings.TrimSpace(part), "W/")
		if part == "*" || part == etag {
			return true
		}
	}
	return false
}

// EncodeView renders a view as the distances response body for a form.
// JSON bodies include the trailing newline WriteJSON appends, so cached
// and freshly-encoded responses are byte-identical.
func EncodeView(v *core.View, form string) ([]byte, error) {
	switch form {
	case FormBinary:
		return encodeBinaryView(v)
	case "ranks":
		v = core.RankView(v)
	}
	b, err := json.Marshal(ToWire(v))
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Entry serves the rendered response for the engine's current version,
// rendering it from the iTracker's view when the version moved. Forms
// are validated before this is reached.
func (s *trackerSource) Entry(ctx context.Context, token, form string) (*Entry, error) {
	ver, err := s.tr.ViewVersion(token)
	if err != nil {
		return nil, err
	}
	return s.entries.Get(ctx, form, ver, s.h.CacheMetrics, func(ctx context.Context) (int, *core.View, error) {
		v, err := s.tr.DistancesCtx(ctx, token)
		if err != nil {
			return 0, nil, err
		}
		return v.Version, v, nil
	})
}

// View implements ViewSource off the iTracker's materialized view.
func (s *trackerSource) View(ctx context.Context, token string) (*core.View, error) {
	return s.tr.DistancesCtx(ctx, token)
}

// LookupPID answers from the iTracker's PID map; the lookup interface is
// public, so the token is not consulted.
func (s *trackerSource) LookupPID(ctx context.Context, token string, ip net.IP) (PIDLookupWire, error) {
	pid, asn, err := s.tr.LookupPID(ip)
	return PIDLookupWire{PID: pid, ASN: asn}, err
}

// handleDistances is the steady-state serving path pinned by
// BenchmarkPortalDistances and TestCachedDistancesAllocs: with the
// source's view unchanged it must be a byte copy.
func (h *Handler) handleDistances(w http.ResponseWriter, r *http.Request) {
	form := "raw"
	if r.URL.RawQuery != "" { // parsing the query allocates; skip it when absent
		if f := r.URL.Query().Get("form"); f != "" {
			form = f
		}
		if form != "raw" && form != "ranks" {
			WriteJSON(h.Telemetry.Logger, w, r, http.StatusBadRequest, errorWire{Error: "unknown form; use raw or ranks"})
			return
		}
	}
	// Only raw has a binary rendering. Header.Get would canonicalize the key.
	if form == "raw" && acceptsBinary(r.Header["Accept"]) {
		form = FormBinary
	}
	ent, err := h.src.Entry(r.Context(), r.Header.Get(tokenHeaderCanon), form)
	if err != nil {
		h.writeErr(w, r, err)
		return
	}
	// Direct map assignment with pre-canonicalized keys ("Etag" is the
	// canonical MIME form) and shared value slices: zero allocations.
	hdr := w.Header()
	hdr["Vary"] = varyAcceptVals
	hdr["Etag"] = ent.etagVals
	if inm := r.Header.Get("If-None-Match"); inm != "" && ETagMatches(inm, ent.ETag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	hdr["Content-Type"] = ent.ctVals
	hdr["Content-Length"] = ent.clenVals
	w.WriteHeader(http.StatusOK)
	w.Write(ent.body)
}

// ParsePairs parses the GET form of a batch request:
// pairs=src-dst,src-dst with decimal PIDs.
func ParsePairs(s string) ([]PIDPair, error) {
	if s == "" {
		return nil, errors.New("missing pairs parameter; use pairs=src-dst,src-dst")
	}
	parts := strings.Split(s, ",")
	out := make([]PIDPair, 0, len(parts))
	for _, p := range parts {
		dash := strings.IndexByte(p, '-')
		if dash < 0 {
			return nil, fmt.Errorf("malformed pair %q; want src-dst", p)
		}
		src, err := strconv.Atoi(p[:dash])
		if err != nil {
			return nil, fmt.Errorf("malformed pair %q: %v", p, err)
		}
		dst, err := strconv.Atoi(p[dash+1:])
		if err != nil {
			return nil, fmt.Errorf("malformed pair %q: %v", p, err)
		}
		out = append(out, PIDPair{Src: topology.PID(src), Dst: topology.PID(dst)})
	}
	return out, nil
}

// readBatchPairs parses either wire form of a batch request and applies
// the limits; on error it writes the 400 (413 for a body over
// maxBatchBody) and reports !ok.
func (h *Handler) readBatchPairs(w http.ResponseWriter, r *http.Request) ([]PIDPair, bool) {
	var pairs []PIDPair
	if r.Method == http.MethodPost {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBatchBody))
		if err != nil {
			status := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				status = http.StatusRequestEntityTooLarge
			}
			WriteJSON(h.Telemetry.Logger, w, r, status, errorWire{Error: "read request body: " + err.Error()})
			return nil, false
		}
		var req BatchRequestWire
		if err := json.Unmarshal(body, &req); err != nil {
			WriteJSON(h.Telemetry.Logger, w, r, http.StatusBadRequest, errorWire{Error: "decode request body: " + err.Error()})
			return nil, false
		}
		pairs = req.Pairs
	} else {
		var err error
		pairs, err = ParsePairs(r.URL.Query().Get("pairs"))
		if err != nil {
			WriteJSON(h.Telemetry.Logger, w, r, http.StatusBadRequest, errorWire{Error: err.Error()})
			return nil, false
		}
	}
	if len(pairs) == 0 {
		WriteJSON(h.Telemetry.Logger, w, r, http.StatusBadRequest, errorWire{Error: "empty pairs list"})
		return nil, false
	}
	if len(pairs) > maxBatchPairs {
		WriteJSON(h.Telemetry.Logger, w, r, http.StatusBadRequest,
			errorWire{Error: fmt.Sprintf("%d pairs exceeds the %d-pair batch limit", len(pairs), maxBatchPairs)})
		return nil, false
	}
	return pairs, true
}

// handleBatch serves many src/dst distance queries from the same view
// as the full-matrix endpoint, without shipping the whole matrix:
// appTrackers that poll N portals for a handful of pairs each (the
// federation workload) stop re-downloading square matrices, and over a
// merged source the cross-shard pairs are exactly what no single
// backend can answer.
func (h *Handler) handleBatch(w http.ResponseWriter, r *http.Request) {
	pairs, ok := h.readBatchPairs(w, r)
	if !ok {
		return
	}
	v, err := h.src.View(r.Context(), r.Header.Get(tokenHeaderCanon))
	if err != nil {
		h.writeErr(w, r, err)
		return
	}
	cols := v.Columns() // memoised on the view: one table lookup per PID
	out := BatchResponseWire{Version: v.Version, Distances: make([]float64, len(pairs))}
	for k, pr := range pairs {
		a, b := cols.Col(pr.Src), cols.Col(pr.Dst)
		if a < 0 || b < 0 {
			pid := pr.Src
			if a >= 0 {
				pid = pr.Dst
			}
			WriteJSON(h.Telemetry.Logger, w, r, http.StatusBadRequest,
				errorWire{Error: fmt.Sprintf("PID %d not in the external view", pid)})
			return
		}
		if d := v.D[a][b]; math.IsInf(d, 0) {
			out.Distances[k] = Unreachable
		} else {
			out.Distances[k] = d
		}
	}
	WriteJSON(h.Telemetry.Logger, w, r, http.StatusOK, out)
}

func (h *Handler) handleCapabilities(w http.ResponseWriter, r *http.Request) {
	caps, err := h.Tracker.Capabilities(r.Header.Get(tokenHeaderCanon), r.URL.Query().Get("kind"))
	if err != nil {
		h.writeErr(w, r, err)
		return
	}
	if caps == nil {
		caps = []itracker.Capability{}
	}
	WriteJSON(h.Telemetry.Logger, w, r, http.StatusOK, caps)
}

func (h *Handler) handlePID(w http.ResponseWriter, r *http.Request) {
	ip := net.ParseIP(r.URL.Query().Get("ip"))
	if ip == nil {
		WriteJSON(h.Telemetry.Logger, w, r, http.StatusBadRequest, errorWire{Error: "missing or malformed ip parameter"})
		return
	}
	out, err := h.src.LookupPID(r.Context(), r.Header.Get(tokenHeaderCanon), ip)
	switch {
	case errors.Is(err, ErrAccessDenied):
		h.writeErr(w, r, err)
	case err != nil:
		WriteJSON(h.Telemetry.Logger, w, r, http.StatusNotFound, errorWire{Error: err.Error()})
	default:
		WriteJSON(h.Telemetry.Logger, w, r, http.StatusOK, out)
	}
}
