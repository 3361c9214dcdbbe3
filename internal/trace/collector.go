package trace

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"
)

// WireSpan is the JSON shape of one span in /debug/traces output.
type WireSpan struct {
	SpanID        string `json:"span_id"`
	ParentSpanID  string `json:"parent_span_id,omitempty"`
	Name          string `json:"name"`
	StartUnixNano int64  `json:"start_unix_nano"`
	DurationUS    int64  `json:"duration_us"`
	Error         string `json:"error,omitempty"`
	Attrs         []Attr `json:"attrs,omitempty"`
}

// WireTrace is the JSON shape of one kept trace: every local span of
// one trace ID, in start order.
type WireTrace struct {
	TraceID string     `json:"trace_id"`
	Spans   []WireSpan `json:"spans"`
}

// WireSnapshot is the full /debug/traces payload. UnendedChildren
// counts the child spans still open when their trace's local root
// ended, over every trace offered, kept or not: non-zero means some
// trace lost a subtree.
type WireSnapshot struct {
	Capacity        int         `json:"capacity"`
	Kept            uint64      `json:"kept"`
	SampledOut      uint64      `json:"sampled_out"`
	UnendedChildren uint64      `json:"unended_children"`
	SlowThresholdUS int64       `json:"slow_threshold_us"`
	KeepRate        float64     `json:"keep_rate"`
	Traces          []WireTrace `json:"traces"`
}

// Collector keeps completed traces in a fixed-size ring, deciding at
// trace end (tail sampling) whether each one is worth a slot: traces
// that errored or whose root exceeded SlowThreshold are always kept,
// the rest are kept with probability KeepRate. The ring overwrites its
// oldest entry when full, so /debug/traces always shows the most
// recent interesting traffic at bounded memory.
type Collector struct {
	// SlowThreshold is the root-span duration at or above which a trace
	// is always kept. Zero keeps everything on the slow rule alone.
	SlowThreshold time.Duration
	// KeepRate in [0, 1] is the probability a fast, error-free trace is
	// kept anyway, so /debug/traces shows baseline traffic too.
	KeepRate float64

	// randFn is injectable for deterministic tail-sampling tests; nil
	// uses the owning tracer's source via the caller's draw.
	randFn func() uint64

	mu         sync.Mutex
	ring       []*traceData
	next       int
	kept       uint64
	sampledOut uint64
	unended    uint64
}

// NewCollector builds a collector holding up to capacity traces.
// Capacity is clamped to at least 1.
func NewCollector(capacity int, slow time.Duration, keepRate float64) *Collector {
	if capacity < 1 {
		capacity = 1
	}
	return &Collector{
		SlowThreshold: slow,
		KeepRate:      keepRate,
		ring:          make([]*traceData, 0, capacity),
	}
}

func (c *Collector) keepAnyway() bool {
	if c.KeepRate >= 1 {
		return true
	}
	if c.KeepRate <= 0 {
		return false
	}
	var v uint64
	if c.randFn != nil {
		v = c.randFn()
	} else {
		v = globalRand64()
	}
	const den = 1 << 53
	return float64(v%den)/den < c.KeepRate
}

// offer is called once per trace, when its local root span ends, with
// the number of its child spans still open. The tail-sampling decision
// happens here, with the whole trace in hand.
func (c *Collector) offer(td *traceData, rootDur time.Duration, hasErr bool, unended int64) {
	keep := hasErr || rootDur >= c.SlowThreshold || c.keepAnyway()
	c.mu.Lock()
	c.unended += uint64(unended)
	if !keep {
		c.sampledOut++
		c.mu.Unlock()
		return
	}
	c.kept++
	if len(c.ring) < cap(c.ring) {
		c.ring = append(c.ring, td)
	} else {
		c.ring[c.next] = td
		c.next = (c.next + 1) % cap(c.ring)
	}
	c.mu.Unlock()
}

// Snapshot returns the kept traces, oldest first, plus counters. The
// wire structs are built from plain copies taken under the locks;
// callers marshal outside any lock.
func (c *Collector) Snapshot() WireSnapshot {
	c.mu.Lock()
	snap := WireSnapshot{
		Capacity:        cap(c.ring),
		Kept:            c.kept,
		SampledOut:      c.sampledOut,
		SlowThresholdUS: c.SlowThreshold.Microseconds(),
		KeepRate:        c.KeepRate,
		UnendedChildren: c.unended,
	}
	tds := make([]*traceData, 0, len(c.ring))
	if len(c.ring) < cap(c.ring) {
		tds = append(tds, c.ring...)
	} else {
		tds = append(tds, c.ring[c.next:]...)
		tds = append(tds, c.ring[:c.next]...)
	}
	c.mu.Unlock()

	snap.Traces = make([]WireTrace, 0, len(tds))
	for _, td := range tds {
		td.mu.Lock()
		wt := WireTrace{Spans: make([]WireSpan, 0, len(td.spans))}
		for _, s := range td.spans {
			if len(wt.Spans) == 0 {
				wt.TraceID = s.sc.TraceID.String()
			}
			ws := WireSpan{
				SpanID:        s.sc.SpanID.String(),
				Name:          s.name,
				StartUnixNano: s.start.UnixNano(),
				DurationUS:    s.dur.Microseconds(),
				Error:         s.err,
			}
			if !s.parent.IsZero() {
				ws.ParentSpanID = s.parent.String()
			}
			if len(s.attrs) > 0 {
				ws.Attrs = append([]Attr(nil), s.attrs...)
			}
			wt.Spans = append(wt.Spans, ws)
		}
		td.mu.Unlock()
		snap.Traces = append(snap.Traces, wt)
	}
	return snap
}

// Handler serves the snapshot as JSON — marshal first, then one Write,
// so an encode failure can still become a clean 500.
func (c *Collector) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := json.Marshal(c.Snapshot())
		if err != nil {
			http.Error(w, `{"error":"trace encode failed"}`, http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		w.Write(body)
	})
}
