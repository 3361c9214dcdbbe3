package portal

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"p4p/internal/core"
	"p4p/internal/telemetry"
	"p4p/internal/trace"
)

// RetryPolicy bounds the client's retry loop. Attempts are spaced by
// exponential backoff with full jitter and each attempt runs under its
// own deadline, so one slow or dead portal replica cannot wedge a
// caller for longer than the policy allows.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries, including the first
	// (default 3; values < 1 behave as 1).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (default 100ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 2s).
	MaxDelay time.Duration
	// PerAttempt is the per-attempt timeout (default 5s). The deadline
	// of the caller's context, when sooner, wins.
	PerAttempt time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.PerAttempt <= 0 {
		p.PerAttempt = 5 * time.Second
	}
	return p
}

// backoff returns the sleep before attempt n (n = 1 after the first
// try), exponential in n with full jitter. A non-positive computed
// delay (zero-valued policy fields, or a shift overflow on large n)
// yields zero sleep instead of panicking in the jitter draw; the
// concurrency-safe math/rand/v2 source avoids both the global-lock
// contention and the seeding pitfalls of the old math/rand global.
func (p RetryPolicy) backoff(n int) time.Duration {
	d := p.BaseDelay << uint(n-1)
	if d > p.MaxDelay || d <= 0 {
		d = p.MaxDelay
	}
	if d <= 0 {
		return 0
	}
	return time.Duration(rand.Int64N(int64(d)) + 1)
}

// cachedView pairs a decoded view with the ETag it arrived under and
// the portal root it came from, for conditional refresh.
type cachedView struct {
	view *core.View
	etag string
	root string
}

// ClientMetrics instruments a portal client. All methods are nil-safe,
// so an uninstrumented client pays only a nil check per event.
type ClientMetrics struct {
	// Retries counts attempts beyond the first per request.
	Retries *telemetry.Counter
	// BackoffSeconds accumulates time spent sleeping between attempts.
	BackoffSeconds *telemetry.Counter
	// ETagHits counts 304 revalidations answered from the client's
	// cached view (no matrix bytes moved over the wire).
	ETagHits *telemetry.Counter
	// Failures counts requests that exhausted every attempt.
	Failures *telemetry.Counter
}

// NewClientMetrics registers the portal-client metric families.
func NewClientMetrics(r *telemetry.Registry) *ClientMetrics {
	return &ClientMetrics{
		Retries: r.Counter("p4p_client_retries_total",
			"Portal request attempts beyond the first."),
		BackoffSeconds: r.Counter("p4p_client_backoff_seconds_total",
			"Total time spent sleeping in retry backoff."),
		ETagHits: r.Counter("p4p_client_etag_hits_total",
			"Distance refreshes answered 304 from the client's ETag cache."),
		Failures: r.Counter("p4p_client_failures_total",
			"Portal requests that exhausted every retry attempt."),
	}
}

func (m *ClientMetrics) retry() {
	if m != nil {
		m.Retries.Inc()
	}
}

func (m *ClientMetrics) backoff(d time.Duration) {
	if m != nil {
		m.BackoffSeconds.Add(d.Seconds())
	}
}

func (m *ClientMetrics) etagHit() {
	if m != nil {
		m.ETagHits.Inc()
	}
}

func (m *ClientMetrics) failure() {
	if m != nil {
		m.Failures.Inc()
	}
}

// Client talks to one iTracker portal. It is what an appTracker (or a
// peer in a trackerless system) embeds to consume the P4P interfaces.
//
// Every call takes the caller's context. Calls retry transient failures
// (network errors, HTTP 5xx/429) per Retry, and DistancesContext
// revalidates the one view the client holds with If-None-Match so an
// unchanged matrix is never re-downloaded.
type Client struct {
	// BaseURL is the portal root, e.g. "http://isp-b.example:8080".
	BaseURL string
	// Token is presented on restricted interfaces.
	Token string
	// HTTPClient defaults to a client with a 10 s timeout. Tests inject
	// faults by setting its Transport.
	HTTPClient *http.Client
	// Retry bounds the retry loop; zero values take defaults.
	Retry RetryPolicy
	// Metrics, when non-nil, counts retries, backoff time, ETag-cache
	// hits, and exhausted requests (see NewClientMetrics).
	Metrics *ClientMetrics

	// view is the last view DistancesContext decoded, tagged with the
	// root it came from so a changed BaseURL never presents the old
	// portal's ETag.
	view atomic.Pointer[cachedView]
}

// NewClient builds a portal client.
func NewClient(baseURL, token string) *Client {
	return &Client{
		BaseURL:    baseURL,
		Token:      token,
		HTTPClient: &http.Client{Timeout: 10 * time.Second},
	}
}

// WithBase returns a client identical to c but pointed at a different
// portal root. The derived client shares c's HTTP client (connection
// pool), metrics and retry policy, and holds no view: views are never
// shared between clients. It is how a multi-portal consumer
// (apptracker.MultiPortalViews, the federation router) fans one
// configured client out across N backends.
func (c *Client) WithBase(baseURL string) *Client {
	return &Client{
		BaseURL:    baseURL,
		Token:      c.Token,
		HTTPClient: c.HTTPClient,
		Retry:      c.Retry,
		Metrics:    c.Metrics,
	}
}

// root is BaseURL without trailing slashes, so a path appended to it
// starts with exactly one.
func (c *Client) root() string { return strings.TrimRight(c.BaseURL, "/") }

// held returns the view the client holds for its current root, or nil.
func (c *Client) held() *cachedView {
	if cv := c.view.Load(); cv != nil && cv.root == c.root() {
		return cv
	}
	return nil
}

// ViewETag reports the ETag under which the client's view last arrived,
// or "" when it holds none. The federation router composes these
// per-shard validators into its federation ETag.
func (c *Client) ViewETag() string {
	if cv := c.held(); cv != nil {
		return cv.etag
	}
	return ""
}

// errHTTP carries a non-2xx portal response through the retry loop.
type errHTTP struct {
	status int
	msg    string
	path   string
}

func (e *errHTTP) Error() string {
	if e.msg != "" {
		return fmt.Sprintf("portal: %s: %s (HTTP %d)", e.path, e.msg, e.status)
	}
	return fmt.Sprintf("portal: %s: HTTP %d", e.path, e.status)
}

// retryable reports whether an attempt's failure is worth retrying.
func retryable(status int, err error) bool {
	if err != nil {
		// Network-level failures (refused, reset, per-attempt timeout)
		// are transient; the caller's own cancellation is checked
		// separately against the parent context.
		return true
	}
	return status >= 500 || status == http.StatusTooManyRequests
}

// do performs one request with retries, hdr added to the client's own
// headers. It returns the final status, body and response header; err is
// non-nil only when no attempt produced an HTTP response. The body is
// pooled: the caller decodes or copies what it needs, then hands it to
// freeBody. Every endpoint is read-only (the batch POST carries a
// query), so re-issuing is safe.
func (c *Client) do(ctx context.Context, method, path string, query url.Values, payload []byte, hdr http.Header) (status int, body *bytes.Buffer, resp http.Header, err error) {
	u := c.root() + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	hc := c.HTTPClient
	if hc == nil {
		hc = &http.Client{Timeout: 10 * time.Second}
	}
	// Reuse the inbound handler's request ID when this call originates
	// from one (so appTracker and portal logs line up), else mint. The
	// client span is a child of whatever span the caller's context
	// carries; with no active span it is nil and tracing costs nothing.
	reqID := telemetry.RequestID(ctx)
	if !telemetry.ValidRequestID(reqID) {
		reqID = telemetry.NewRequestID()
	}
	ctx, span := trace.StartSpan(ctx, "client "+method+" "+path)
	defer span.End()
	span.SetAttr("request_id", reqID)
	pol := c.Retry.withDefaults()
	var lastErr error
	for attempt := 1; ; attempt++ {
		status, body, resp, lastErr = c.attempt(ctx, hc, method, u, payload, hdr, pol.PerAttempt, reqID, attempt)
		if lastErr == nil && !retryable(status, nil) {
			span.SetAttrInt("attempts", attempt)
			return status, body, resp, nil
		}
		if lastErr == nil {
			// Retryable HTTP status: keep the envelope in case this is
			// the last attempt.
			lastErr = httpErrFromBody(path, status, body.Bytes())
			freeBody(body)
		}
		if attempt >= pol.MaxAttempts || ctx.Err() != nil {
			c.Metrics.failure()
			err = fmt.Errorf("portal: %s: giving up after %d attempt(s): %w", path, attempt, lastErr)
			span.SetAttrInt("attempts", attempt)
			span.RecordError(err)
			return 0, nil, nil, err
		}
		sleep := pol.backoff(attempt)
		c.Metrics.retry()
		slept := time.Now()
		select {
		case <-time.After(sleep):
			c.Metrics.backoff(time.Since(slept))
		case <-ctx.Done():
			c.Metrics.backoff(time.Since(slept))
			c.Metrics.failure()
			err = fmt.Errorf("portal: %s: %w (after %d attempt(s): %v)", path, ctx.Err(), attempt, lastErr)
			span.SetAttrInt("attempts", attempt)
			span.RecordError(err)
			return 0, nil, nil, err
		}
	}
}

// maxResponseBody caps how much of a response the client reads;
// maxPresize caps how much of it is allocated on the strength of a
// declared Content-Length alone. Backends are untrusted: past the
// presize the buffer grows only as bytes actually arrive.
const (
	maxResponseBody = 64 << 20
	maxPresize      = 1 << 20
)

// bodyPool recycles response buffers, so a poll's only large allocation
// is the view it decodes. Nothing a Client returns aliases one.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// freeBody returns a body's buffer to bodyPool; one grown past
// maxPresize is dropped, so a single large response pins no memory.
func freeBody(b *bytes.Buffer) {
	if b.Cap() <= maxPresize {
		b.Reset()
		bodyPool.Put(b)
	}
}

// attempt issues one request under a per-attempt deadline. A non-nil
// payload is re-read from scratch on every attempt. Each attempt gets
// its own child span, and the traceparent injected on the wire names
// that attempt — so the portal's server span parents to the specific
// try that reached it, and a retried request is visibly two hops.
func (c *Client) attempt(ctx context.Context, hc *http.Client, method, u string, payload []byte, hdr http.Header, perAttempt time.Duration, reqID string, attempt int) (int, *bytes.Buffer, http.Header, error) {
	actx, cancel := context.WithTimeout(ctx, perAttempt)
	defer cancel()
	actx, span := trace.StartSpan(actx, "attempt")
	defer span.End()
	span.SetAttrInt("attempt", attempt)
	var reqBody io.Reader
	if payload != nil {
		reqBody = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(actx, method, u, reqBody)
	if err != nil {
		err = fmt.Errorf("build request: %w", err)
		span.RecordError(err)
		return 0, nil, nil, err
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Token != "" {
		req.Header.Set(tokenHeader, c.Token)
	}
	req.Header.Set("X-Request-Id", reqID)
	trace.Inject(actx, req.Header)
	resp, err := hc.Do(req)
	if err != nil {
		span.RecordError(err)
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	// A declared length sizes the buffer once (plus the spare ReadFrom
	// wants before it sees EOF); io.ReadAll would regrow it eight times
	// on the way to a 52 KB view. One byte past the cap tells a body
	// over it from one that fits.
	buf := bodyPool.Get().(*bytes.Buffer)
	if n := resp.ContentLength; n > 0 {
		buf.Grow(int(min(n, maxPresize)) + bytes.MinRead)
	}
	_, err = buf.ReadFrom(io.LimitReader(resp.Body, maxResponseBody+1))
	if err == nil && buf.Len() > maxResponseBody {
		err = fmt.Errorf("over the %d MiB response limit", maxResponseBody>>20)
	}
	if err != nil {
		freeBody(buf) // an over-cap buffer is past maxPresize: dropped
		err = fmt.Errorf("read body: %w", err)
		span.RecordError(err)
		return 0, nil, nil, err
	}
	span.SetAttrInt("http.status", resp.StatusCode)
	span.SetAttrInt("http.response_bytes", buf.Len())
	if buf.Len() > 0 {
		span.SetAttr("encoding", encodingOf(resp.Header))
	}
	return resp.StatusCode, buf, resp.Header, nil
}

// encodingOf names a response body's encoding: "binary" for
// BinaryViewType, "json" for everything else a portal sends.
func encodingOf(h http.Header) string {
	if h.Get("Content-Type") == BinaryViewType {
		return "binary"
	}
	return "json"
}

// httpErrFromBody builds the error for a non-2xx response, preferring
// the server's JSON error envelope.
func httpErrFromBody(path string, status int, body []byte) error {
	var e errorWire
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return &errHTTP{status: status, msg: e.Error, path: path}
	}
	return &errHTTP{status: status, path: path}
}

// doJSON issues one request and decodes a 200 response into out.
func (c *Client) doJSON(ctx context.Context, method, path string, query url.Values, payload []byte, out interface{}) error {
	status, body, _, err := c.do(ctx, method, path, query, payload, nil)
	if err != nil {
		return err
	}
	defer freeBody(body)
	if status != http.StatusOK {
		return httpErrFromBody(path, status, body.Bytes())
	}
	if err := json.Unmarshal(body.Bytes(), out); err != nil {
		return fmt.Errorf("portal: decode %s: %w", path, err)
	}
	return nil
}

// DistancesContext fetches the raw p-distance view, revalidating the
// held view with If-None-Match; a 304 returns it without moving matrix
// bytes over the wire. The view is asked for in binary; whatever
// arrives is decoded by its Content-Type.
func (c *Client) DistancesContext(ctx context.Context) (*core.View, error) {
	const path = "/p4p/v1/distances"
	hdr := http.Header{}
	hdr.Set("Accept", BinaryViewType+", application/json") // JSON from a portal that ignores Accept
	cached := c.held()
	if cached != nil {
		hdr.Set("If-None-Match", cached.etag)
	}
	status, body, resp, err := c.do(ctx, http.MethodGet, path, nil, nil, hdr)
	if err != nil {
		return nil, err
	}
	defer freeBody(body)
	switch status {
	case http.StatusNotModified:
		if cached == nil {
			return nil, fmt.Errorf("portal: %s: 304 with no cached view", path)
		}
		c.Metrics.etagHit()
		return cached.view, nil
	case http.StatusOK:
		v, err := decodeView(body.Bytes(), encodingOf(resp))
		if err != nil {
			return nil, fmt.Errorf("portal: decode %s: %w", path, err)
		}
		// Any 200 replaces the held view. A 200 without an ETag has
		// withdrawn the server's validator: keeping the old view would
		// revalidate future requests against a dead ETag, and a spurious
		// match would pair the old matrix with a new version. Drop it.
		if etag := resp.Get("ETag"); etag != "" {
			c.view.Store(&cachedView{view: v, etag: etag, root: c.root()})
		} else {
			c.view.Store(nil)
		}
		return v, nil
	default:
		return nil, httpErrFromBody(path, status, body.Bytes())
	}
}

// decodeView decodes a distances body in the named encoding.
func decodeView(body []byte, encoding string) (*core.View, error) {
	if encoding == "binary" {
		return decodeBinaryView(body)
	}
	var w ViewWire
	if err := json.Unmarshal(body, &w); err != nil {
		return nil, err
	}
	return FromWire(&w)
}

// errNilIP rejects LookupPIDContext calls before any request is issued.
var errNilIP = errors.New("portal: lookup of nil or invalid IP")

// LookupPIDContext resolves an IP to PID and ASN.
func (c *Client) LookupPIDContext(ctx context.Context, ip net.IP) (PIDLookupWire, error) {
	var out PIDLookupWire
	if ip == nil || ip.To16() == nil {
		return out, errNilIP
	}
	err := c.doJSON(ctx, http.MethodGet, "/p4p/v1/pid", url.Values{"ip": {ip.String()}}, nil, &out)
	return out, err
}
