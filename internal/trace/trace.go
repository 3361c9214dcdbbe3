// Package trace is the repo's zero-dependency request-tracing layer, in
// the same spirit as internal/telemetry: spans with start/end times,
// attributes, and error status; W3C traceparent propagation so an
// appTracker request and the portal work it causes stitch into one
// trace across processes; and a fixed-size ring-buffer collector with
// tail-based sampling (slow and errored traces always kept, the rest
// probabilistically) served as JSON at GET /debug/traces.
//
// The design constraint is the serving path: a request that is not
// sampled must pay nothing — no allocations, no context copies, no
// atomic traffic — beyond one header parse. Every Span method is
// nil-receiver-safe, so call sites need no guards and the unsampled
// path threads a nil span everywhere (TestTracedUnsampledDistancesAllocs
// pins the portal's cached path at the same allocation budget with and
// without the tracer installed). See DESIGN.md §11.
package trace

import (
	"context"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span. Values are strings;
// SetAttrInt formats integers on the (already sampled, already
// allocating) recording path.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed operation within a trace. A nil *Span is a valid
// no-op: every method checks the receiver, so unsampled requests thread
// nil spans through the same call sites at zero cost.
//
// All mutable state is guarded by the owning trace's mutex, so spans
// may be started, annotated, and ended from different goroutines (a
// singleflight waiter and the materializer, for instance) while the
// collector snapshots the trace concurrently.
type Span struct {
	td     *traceData
	name   string
	sc     SpanContext
	parent SpanID // zero for a root with no remote parent

	start time.Time
	dur   time.Duration
	ended bool
	err   string
	attrs []Attr
}

// Context returns the span's propagation context (trace ID, span ID,
// sampled flag). The zero SpanContext is returned for a nil span.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// Recording reports whether the span is live (non-nil), i.e. whether
// annotating it does anything.
func (s *Span) Recording() bool { return s != nil }

// SetAttr attaches a string attribute.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.td.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.td.mu.Unlock()
}

// SetAttrInt attaches an integer attribute.
func (s *Span) SetAttrInt(key string, v int) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.Itoa(v))
}

// RecordError marks the span errored. The whole trace is then always
// kept by the collector's tail sampler. A nil err is ignored.
func (s *Span) RecordError(err error) {
	if s == nil || err == nil {
		return
	}
	s.td.mu.Lock()
	s.err = err.Error()
	s.td.mu.Unlock()
}

// End stamps the span's duration. Ending the local root span hands the
// whole trace to the collector for the tail-sampling decision. End is
// idempotent; ending a nil span is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	td := s.td
	td.mu.Lock()
	if s.ended {
		td.mu.Unlock()
		return
	}
	s.ended = true
	s.dur = td.tracer.now().Sub(s.start)
	isRoot := td.root == s
	var rootDur time.Duration
	hasErr := false
	if isRoot {
		rootDur = s.dur
		for _, sp := range td.spans {
			if sp.err != "" {
				hasErr = true
				break
			}
		}
	}
	td.mu.Unlock()
	if isRoot && td.tracer.Collector != nil {
		td.tracer.Collector.offer(td, rootDur, hasErr)
	}
}

// traceData is the per-trace spine every local span of one trace hangs
// off: the shared lock, the span list in start order, and the local
// root whose End triggers the tail-sampling decision.
type traceData struct {
	tracer *Tracer

	mu    sync.Mutex
	spans []*Span
	root  *Span
}

// Tracer mints spans and applies head sampling to new traces. The zero
// value records nothing; both binaries build one with NewTracer behind
// the -traces flag.
type Tracer struct {
	// Collector receives completed traces for tail sampling and
	// /debug/traces exposure. A nil collector drops every trace.
	Collector *Collector
	// SampleRate in [0, 1] is the probability a *new* root trace is
	// recorded at all (head sampling); requests arriving with a sampled
	// traceparent are always recorded, honoring the upstream decision.
	// Tail sampling — which recorded traces the ring keeps — is the
	// collector's job.
	SampleRate float64

	// nowFn and randFn are injectable for tests (fake clock, forced
	// sampling decisions); nil takes the real clock and math/rand/v2.
	nowFn  func() time.Time
	randFn func() uint64
}

// NewTracer builds a tracer that records every new trace (head
// SampleRate 1) into the given collector.
func NewTracer(c *Collector) *Tracer {
	return &Tracer{Collector: c, SampleRate: 1}
}

func (t *Tracer) now() time.Time {
	if t.nowFn != nil {
		return t.nowFn()
	}
	return time.Now()
}

func (t *Tracer) rand64() uint64 {
	if t.randFn != nil {
		return t.randFn()
	}
	return rand.Uint64()
}

// globalRand64 is the collector's default randomness source.
func globalRand64() uint64 { return rand.Uint64() }

// headSampled draws the head-sampling decision for a new root.
func (t *Tracer) headSampled() bool {
	if t.SampleRate >= 1 {
		return true
	}
	if t.SampleRate <= 0 {
		return false
	}
	const den = 1 << 53
	return float64(t.rand64()%den)/den < t.SampleRate
}

// newTraceID mints a non-zero trace ID.
func (t *Tracer) newTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		hi, lo := t.rand64(), t.rand64()
		for i := 0; i < 8; i++ {
			id[i] = byte(hi >> (56 - 8*i))
			id[8+i] = byte(lo >> (56 - 8*i))
		}
	}
	return id
}

// newSpanID mints a non-zero span ID.
func (t *Tracer) newSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		v := t.rand64()
		for i := 0; i < 8; i++ {
			id[i] = byte(v >> (56 - 8*i))
		}
	}
	return id
}

// startLocalRoot builds the trace spine and its local root span.
func (t *Tracer) startLocalRoot(name string, traceID TraceID, parent SpanID) *Span {
	td := &traceData{tracer: t}
	s := &Span{
		td:     td,
		name:   name,
		sc:     SpanContext{TraceID: traceID, SpanID: t.newSpanID(), Sampled: true},
		parent: parent,
		start:  t.now(),
	}
	td.root = s
	td.spans = []*Span{s}
	return s
}

// StartRoot starts a new trace with the given root span name, applying
// head sampling. When unsampled (or t is nil) the context is returned
// unchanged with a nil span, costing nothing.
func (t *Tracer) StartRoot(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil || !t.headSampled() {
		return ctx, nil
	}
	s := t.startLocalRoot(name, t.newTraceID(), SpanID{})
	return ContextWithSpan(ctx, s), s
}

// StartServer starts the server span for an inbound request carrying
// the given traceparent header value (possibly empty). A valid sampled
// header continues the caller's trace — same trace ID, the caller's
// span as parent — so cross-process hops stitch. A valid unsampled
// header is honored: no span, zero cost. An absent or invalid header
// starts a fresh trace under head sampling.
func (t *Tracer) StartServer(ctx context.Context, name, traceparent string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	if sc, ok := ParseTraceparent(traceparent); ok {
		if !sc.Sampled {
			return ctx, nil
		}
		s := t.startLocalRoot(name, sc.TraceID, sc.SpanID)
		return ContextWithSpan(ctx, s), s
	}
	return t.StartRoot(ctx, name)
}

// spanKey carries the active span in a context.
type spanKey struct{}

// ContextWithSpan attaches a span to a context. Attaching nil returns
// the context unchanged.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// FromContext returns the context's active span, or nil.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// StartSpan starts a child of the context's active span. With no active
// span it returns the context unchanged and a nil span — libraries call
// this unconditionally and the unsampled path pays only the context
// lookup.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	td := parent.td
	s := &Span{
		td:     td,
		name:   name,
		sc:     SpanContext{TraceID: parent.sc.TraceID, SpanID: td.tracer.newSpanID(), Sampled: true},
		parent: parent.sc.SpanID,
		start:  td.tracer.now(),
	}
	td.mu.Lock()
	td.spans = append(td.spans, s)
	td.mu.Unlock()
	return ContextWithSpan(ctx, s), s
}

// traceparentHeader is the canonical MIME form net/http stores the
// (lowercase on the wire) traceparent header under.
const traceparentHeader = "Traceparent"

// Inject writes the context's active span as a traceparent header (and
// nothing else) onto an outbound request's headers. No active span, no
// header, no cost.
func Inject(ctx context.Context, h http.Header) {
	s := FromContext(ctx)
	if s == nil {
		return
	}
	h[traceparentHeader] = []string{s.sc.Traceparent()}
}

// Incoming extracts the traceparent value from inbound request headers
// without allocating (direct canonical-key map read).
func Incoming(h http.Header) string {
	if v := h[traceparentHeader]; len(v) > 0 {
		return v[0]
	}
	return ""
}
