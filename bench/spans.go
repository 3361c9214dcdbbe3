package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span names, one per layer boundary the benchmark wraps. The layer a
// span belongs to is the part before the dot.
const (
	spanGenOp       = "gen.op"             // root: one generated operation
	spanGenCheck    = "gen.check"          // the op's oracle
	spanClientFetch = "client.fetch"       // the generator's client call
	spanWire        = "wire.roundtrip"     // http.RoundTripper wrapper
	spanSrvPortal   = "server.portal"      // http.Handler wrapper on a portal
	spanSrvRouter   = "server.router"      // ... on the federation router
	spanSrvSelect   = "server.select"      // ... on the appTracker
	spanSelect      = "apptracker.select"  // apptracker.Selector wrapper
	spanViewFor     = "apptracker.viewfor" // apptracker.ViewProvider wrapper
	spanFetch       = "apptracker.fetch"   // apptracker.ViewFetcher wrapper
	spanUpdate      = "itracker.update"    // ObserveAndUpdate call
	spanSimRun      = "p2psim.run"         // root: one simulated swarm
)

// benchSpanHeader carries the caller's span across HTTP as "<span>.<op>".
const benchSpanHeader = "X-Bench-Span"

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the recorder was made. Parent 0 marks a root.
type span struct {
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent"`
	Op     uint32 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Attr   string `json:"attr,omitempty"`
}

// spanRef names a span as the cause of another.
type spanRef struct{ id, op uint32 }

// liveSpan is a started, not yet ended span.
type liveSpan struct {
	spanRef
	parent uint32
	name   string
	start  int64
}

// recorder keeps spans in memory until the benchmark ends. A nil
// recorder is tracing switched off: every method is then a no-op.
type recorder struct {
	epoch time.Time
	ids   atomic.Uint32
	ops   atomic.Uint32

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// newOp hands out the identifier the spans of one operation share.
func (r *recorder) newOp() uint32 {
	if r == nil {
		return 0
	}
	return r.ops.Add(1)
}

func (r *recorder) begin(name string, parent spanRef) liveSpan {
	if r == nil {
		return liveSpan{}
	}
	return liveSpan{
		spanRef: spanRef{id: r.ids.Add(1), op: parent.op},
		parent:  parent.id,
		name:    name,
		start:   int64(time.Since(r.epoch)),
	}
}

// beginRoot starts a span that no other span caused.
func (r *recorder) beginRoot(name string) liveSpan {
	return r.begin(name, spanRef{op: r.newOp()})
}

func (r *recorder) end(l liveSpan, attr string) {
	if r == nil {
		return
	}
	s := span{ID: l.id, Parent: l.parent, Op: l.op, Name: l.name, Start: l.start, End: int64(time.Since(r.epoch)), Attr: attr}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// reset drops the spans recorded so far.
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

type spanCtxKey struct{}

func withSpan(ctx context.Context, ref spanRef) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, ref)
}

func spanFrom(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanCtxKey{}).(spanRef)
	return ref
}

func (s spanRef) header() string {
	return strconv.FormatUint(uint64(s.id), 10) + "." + strconv.FormatUint(uint64(s.op), 10)
}

func parseSpanHeader(v string) spanRef {
	for i := 0; i < len(v); i++ {
		if v[i] == '.' {
			id, err1 := strconv.ParseUint(v[:i], 10, 32)
			op, err2 := strconv.ParseUint(v[i+1:], 10, 32)
			if err1 == nil && err2 == nil {
				return spanRef{id: uint32(id), op: uint32(op)}
			}
		}
	}
	return spanRef{}
}

// callStack links spans opened through interfaces that carry no context
// (apptracker.Selector, apptracker.ViewProvider, the OnMeasure
// callback). Calls through them are serialised by the caller — the
// /select route's RNG mutex, the simulator's single goroutine — so the
// innermost open span is the parent of the next one.
type callStack struct {
	rec  *recorder
	open []spanRef
}

func (c *callStack) top() spanRef {
	if len(c.open) == 0 {
		return spanRef{}
	}
	return c.open[len(c.open)-1]
}

func (c *callStack) push(name string) liveSpan {
	l := c.rec.begin(name, c.top())
	c.open = append(c.open, l.spanRef)
	return l
}

func (c *callStack) pop(l liveSpan, attr string) {
	c.open = c.open[:len(c.open)-1]
	c.rec.end(l, attr)
}

// selfTimes returns, index-aligned with spans, each span's duration
// minus the part of its interval that its child spans cover. Children
// that overlap one another (parallel shard fetches) are counted once.
func selfTimes(spans []span) []int64 {
	index := make(map[uint32]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	children := make([][]int, len(spans))
	for i, s := range spans {
		if p, ok := index[s.Parent]; ok && s.Parent != 0 {
			children[p] = append(children[p], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// layerStat sums the spans of one name.
type layerStat struct {
	Count  int
	SelfNs int64
	DurNs  int64
}

func (l layerStat) meanSelfUs() float64 {
	if l.Count == 0 {
		return 0
	}
	return float64(l.SelfNs) / float64(l.Count) / 1e3
}

func (l layerStat) meanDurUs() float64 {
	if l.Count == 0 {
		return 0
	}
	return float64(l.DurNs) / float64(l.Count) / 1e3
}

// traceSummary is what one traced pass yields: per-name totals and how
// much of the root spans' time their descendants account for.
type traceSummary struct {
	layers map[string]layerStat
	// accounted is the self time of every non-root span in a root's
	// tree, summed, as a share of the summed duration of those roots.
	accounted float64
}

func summarizeTrace(spans []span, rootName string) traceSummary {
	self := selfTimes(spans)
	out := traceSummary{layers: map[string]layerStat{}}
	rootOps := map[uint32]bool{}
	var rootDur int64
	for _, s := range spans {
		if s.Name == rootName && s.Parent == 0 {
			rootOps[s.Op] = true
			rootDur += s.End - s.Start
		}
	}
	var inside int64
	for i, s := range spans {
		st := out.layers[s.Name]
		st.Count++
		st.SelfNs += self[i]
		st.DurNs += s.End - s.Start
		out.layers[s.Name] = st
		if rootOps[s.Op] && s.Parent != 0 {
			inside += self[i]
		}
	}
	if rootDur > 0 {
		out.accounted = float64(inside) / float64(rootDur)
	}
	return out
}

// maxSpansWritten bounds a trace file: every span is kept in memory and
// summed, the file holds the first of them in end order.
const maxSpansWritten = 20000

type traceFile struct {
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	SpansTotal   int    `json:"spans_total"`
	SpansWritten int    `json:"spans_written"`
	Spans        []span `json:"spans"`
}

func writeTraceFile(dir, workload string, seed int64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	tf := traceFile{Workload: workload, Seed: seed, SpansTotal: len(spans), Spans: spans}
	if len(tf.Spans) > maxSpansWritten {
		tf.Spans = tf.Spans[:maxSpansWritten]
	}
	tf.SpansWritten = len(tf.Spans)
	body, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, append(body, '\n'), 0o644)
}
