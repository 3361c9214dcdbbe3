package trace

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"testing"
	"time"
)

// fakeClock is a step-on-read clock so span durations are deterministic
// without wall-clock sleeps.
type fakeClock struct {
	mu   sync.Mutex
	now  time.Time
	step time.Duration
}

func newFakeClock(step time.Duration) *fakeClock {
	return &fakeClock{now: time.Unix(1700000000, 0), step: step}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(c.step)
	return c.now
}

// newTestTracer builds a tracer with a deterministic clock and a
// counting (never-zero) ID source, recording into c. At cleanup it
// fails t unless every span the test recorded was ended in time.
func newTestTracer(t *testing.T, c *Collector, step time.Duration) *Tracer {
	tr := NewTracer(c)
	t.Cleanup(func() {
		if roots, children := tr.Unended(); roots != 0 || children != 0 {
			t.Errorf("%d recorded roots never ended, %d child spans outlived their root", roots, children)
		}
	})
	clk := newFakeClock(step)
	tr.nowFn = clk.Now
	var ctr uint64
	var mu sync.Mutex
	tr.randFn = func() uint64 {
		mu.Lock()
		defer mu.Unlock()
		ctr++
		return ctr
	}
	return tr
}

func TestNilSpanIsNoOp(t *testing.T) {
	var s *Span
	s.End()
	s.SetAttr("k", "v")
	s.SetAttrInt("n", 7)
	s.RecordError(errors.New("boom"))
	if s.Recording() {
		t.Error("nil span claims to be recording")
	}
	if sc := s.Context(); sc.IsValid() {
		t.Error("nil span has valid context")
	}
	ctx := context.Background()
	if got := ContextWithSpan(ctx, nil); got != ctx {
		t.Error("ContextWithSpan(nil) changed the context")
	}
	if FromContext(ctx) != nil {
		t.Error("FromContext on bare context not nil")
	}
	ctx2, child := StartSpan(ctx, "orphan")
	if child != nil || ctx2 != ctx {
		t.Error("StartSpan without active span should be a no-op")
	}
	h := http.Header{}
	Inject(ctx, h)
	if len(h) != 0 {
		t.Error("Inject without active span wrote headers")
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	ctx := context.Background()
	ctx2, s := tr.StartRoot(ctx, "root")
	if s != nil || ctx2 != ctx {
		t.Error("nil tracer StartRoot not a no-op")
	}
	ctx2, s = tr.StartServer(ctx, "srv", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if s != nil || ctx2 != ctx {
		t.Error("nil tracer StartServer not a no-op")
	}
}

func TestRootAndChildSpans(t *testing.T) {
	c := NewCollector(8, 0, 1) // slow threshold 0: keep everything
	tr := newTestTracer(t, c, time.Millisecond)

	ctx, root := tr.StartRoot(context.Background(), "root")
	if root == nil {
		t.Fatal("head-sampled root is nil")
	}
	if FromContext(ctx) != root {
		t.Fatal("context does not carry the root span")
	}
	cctx, child := StartSpan(ctx, "child")
	if child == nil {
		t.Fatal("child span is nil")
	}
	if child.Context().TraceID != root.Context().TraceID {
		t.Error("child has a different trace ID")
	}
	if child.Context().SpanID == root.Context().SpanID {
		t.Error("child reused the root span ID")
	}
	if FromContext(cctx) != child {
		t.Error("child context does not carry the child span")
	}
	child.SetAttr("kind", "test")
	child.SetAttrInt("n", 42)
	child.End()
	root.End()

	snap := c.Snapshot()
	if len(snap.Traces) != 1 {
		t.Fatalf("kept %d traces, want 1", len(snap.Traces))
	}
	spans := snap.Traces[0].Spans
	if len(spans) != 2 {
		t.Fatalf("trace has %d spans, want 2", len(spans))
	}
	if spans[0].Name != "root" || spans[1].Name != "child" {
		t.Errorf("span order/names = %q, %q", spans[0].Name, spans[1].Name)
	}
	if spans[0].ParentSpanID != "" {
		t.Errorf("root has parent %q", spans[0].ParentSpanID)
	}
	if spans[1].ParentSpanID != spans[0].SpanID {
		t.Errorf("child parent %q != root span %q", spans[1].ParentSpanID, spans[0].SpanID)
	}
	if spans[1].DurationUS <= 0 {
		t.Errorf("child duration %dus, want > 0", spans[1].DurationUS)
	}
	wantAttrs := []Attr{{Key: "kind", Value: "test"}, {Key: "n", Value: "42"}}
	if len(spans[1].Attrs) != 2 || spans[1].Attrs[0] != wantAttrs[0] || spans[1].Attrs[1] != wantAttrs[1] {
		t.Errorf("child attrs = %+v, want %+v", spans[1].Attrs, wantAttrs)
	}
}

func TestEndIdempotent(t *testing.T) {
	c := NewCollector(8, 0, 1)
	tr := newTestTracer(t, c, time.Millisecond)
	_, root := tr.StartRoot(context.Background(), "root")
	root.End()
	root.End() // second End must not re-offer the trace
	if snap := c.Snapshot(); snap.Kept != 1 {
		t.Fatalf("kept %d, want 1 after double End", snap.Kept)
	}
}

func TestStartServerContinuesSampledTrace(t *testing.T) {
	c := NewCollector(8, 0, 1)
	tr := newTestTracer(t, c, time.Millisecond)

	const inbound = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	ctx, s := tr.StartServer(context.Background(), "srv", inbound)
	if s == nil {
		t.Fatal("sampled inbound traceparent produced nil span")
	}
	if got := s.Context().TraceID.String(); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("server span trace ID %q, want the caller's", got)
	}
	if got := s.Context().SpanID.String(); got == "00f067aa0ba902b7" {
		t.Error("server span reused the caller's span ID")
	}
	// The outbound header carries the same trace, new span, sampled.
	h := http.Header{}
	Inject(ctx, h)
	sc, ok := ParseTraceparent(h.Get("Traceparent"))
	if !ok || sc.TraceID.String() != "4bf92f3577b34da6a3ce929d0e0e4736" || !sc.Sampled {
		t.Errorf("injected header %q does not continue the trace", h.Get("Traceparent"))
	}
	s.End()
	snap := c.Snapshot()
	if len(snap.Traces) != 1 || snap.Traces[0].Spans[0].ParentSpanID != "00f067aa0ba902b7" {
		t.Fatalf("server span not parented to remote caller: %+v", snap.Traces)
	}
}

func TestStartServerHonorsUnsampled(t *testing.T) {
	c := NewCollector(8, 0, 1)
	tr := newTestTracer(t, c, time.Millisecond)
	const inbound = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00"
	ctx, s := tr.StartServer(context.Background(), "srv", inbound)
	if s != nil {
		t.Fatal("unsampled inbound traceparent produced a span")
	}
	if FromContext(ctx) != nil {
		t.Fatal("unsampled request got an active span in context")
	}
}

func TestStartServerInvalidHeaderStartsFresh(t *testing.T) {
	c := NewCollector(8, 0, 1)
	tr := newTestTracer(t, c, time.Millisecond)
	_, s := tr.StartServer(context.Background(), "srv", "garbage")
	if s == nil {
		t.Fatal("invalid header should start a fresh head-sampled trace")
	}
	if s.Context().TraceID.String() == "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Error("fresh trace inherited garbage trace ID")
	}
	s.End()
	if snap := c.Snapshot(); len(snap.Traces) != 1 {
		t.Fatalf("fresh trace not kept: %+v", snap)
	}
}

func TestHeadSamplingZeroRate(t *testing.T) {
	c := NewCollector(8, 0, 1)
	tr := newTestTracer(t, c, time.Millisecond)
	tr.SampleRate = 0
	_, s := tr.StartRoot(context.Background(), "root")
	if s != nil {
		t.Fatal("SampleRate 0 still produced a span")
	}
	_, s = tr.StartServer(context.Background(), "srv", "")
	if s != nil {
		t.Fatal("SampleRate 0 StartServer without header still produced a span")
	}
	// Inbound sampled flag overrides head sampling.
	_, s = tr.StartServer(context.Background(), "srv", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if s == nil {
		t.Fatal("inbound sampled trace dropped by head sampler")
	}
	s.End()
}

func TestRecordErrorAlwaysKept(t *testing.T) {
	// Slow threshold far above fake-clock durations, keep rate 0: only
	// the error rule can keep a trace.
	c := NewCollector(8, time.Hour, 0)
	tr := newTestTracer(t, c, time.Millisecond)

	_, ok := tr.StartRoot(context.Background(), "fine")
	ok.End()

	ctx, bad := tr.StartRoot(context.Background(), "bad")
	_, child := StartSpan(ctx, "inner")
	child.RecordError(errors.New("recompute exploded"))
	child.End()
	bad.End()

	snap := c.Snapshot()
	if snap.Kept != 1 || snap.SampledOut != 1 {
		t.Fatalf("kept=%d sampledOut=%d, want 1/1", snap.Kept, snap.SampledOut)
	}
	if len(snap.Traces) != 1 || snap.Traces[0].Spans[0].Name != "bad" {
		t.Fatalf("wrong trace kept: %+v", snap.Traces)
	}
	if snap.Traces[0].Spans[1].Error != "recompute exploded" {
		t.Errorf("error message = %q", snap.Traces[0].Spans[1].Error)
	}
}

func TestSlowTraceAlwaysKept(t *testing.T) {
	// Each clock read advances 10ms; the root span spans several reads,
	// so a 5ms threshold catches it even with keep rate 0.
	c := NewCollector(8, 5*time.Millisecond, 0)
	tr := newTestTracer(t, c, 10*time.Millisecond)
	_, root := tr.StartRoot(context.Background(), "slow")
	root.End()
	if snap := c.Snapshot(); snap.Kept != 1 {
		t.Fatalf("slow trace not kept: %+v", snap)
	}
}

func TestConcurrentSpans(t *testing.T) {
	c := NewCollector(64, 0, 1)
	tr := newTestTracer(t, c, time.Microsecond)
	ctx, root := tr.StartRoot(context.Background(), "root")

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				_, s := StartSpan(ctx, "worker")
				s.SetAttrInt("j", j)
				s.End()
			}
		}()
	}
	// Snapshot concurrently with span creation to exercise the locks.
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for i := 0; i < 20; i++ {
			c.Snapshot()
		}
	}()
	wg.Wait()
	snapWG.Wait()
	root.End()

	snap := c.Snapshot()
	if len(snap.Traces) != 1 {
		t.Fatalf("kept %d traces, want 1", len(snap.Traces))
	}
	if got := len(snap.Traces[0].Spans); got != 1+8*50 {
		t.Fatalf("trace has %d spans, want %d", got, 1+8*50)
	}
}

// TestUnendedCounts pins the two loss counts: a recorded root is open
// until it ends; a child still open when its root ends is counted by
// the tracer and by the collector's snapshot, even if it ends later;
// an unsampled root and a nil tracer count nothing.
func TestUnendedCounts(t *testing.T) {
	c := NewCollector(8, 0, 1)
	tr := NewTracer(c)
	unended := func(wantRoots, wantChildren int64) {
		t.Helper()
		if roots, children := tr.Unended(); roots != wantRoots || children != wantChildren {
			t.Errorf("Unended() = %d, %d; want %d, %d", roots, children, wantRoots, wantChildren)
		}
	}
	ctx, root := tr.StartRoot(context.Background(), "root")
	_, ended := StartSpan(ctx, "ended")
	_, lost := StartSpan(ctx, "lost")
	unended(1, 0)
	ended.End()
	root.End()
	unended(0, 1)
	lost.End() // too late: the root already handed the trace on
	unended(0, 1)
	if got := c.Snapshot().UnendedChildren; got != 1 {
		t.Errorf("snapshot UnendedChildren = %d, want 1", got)
	}

	tr.SampleRate = 0
	_, s := tr.StartRoot(context.Background(), "unsampled")
	s.End()
	unended(0, 1)
	var none *Tracer
	if roots, children := none.Unended(); roots != 0 || children != 0 {
		t.Errorf("nil tracer Unended() = %d, %d", roots, children)
	}
}
