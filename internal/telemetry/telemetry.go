// Package telemetry is the repo's zero-dependency observability layer:
// a race-safe metrics registry (atomic counters, gauges, and fixed-bucket
// histograms, optionally labelled) with Prometheus text-format
// exposition, plus the HTTP instrumentation middleware both binaries
// mount (per-route request counts, status classes, latency histograms,
// ETag-revalidation hits, request IDs, structured logging).
//
// The paper's deployment story — iTrackers serving millions of users
// while the provider watches link utilization and the dual-price
// computation converge — is only operable if the hot paths are
// continuously measured; every metric here is readable by a stock
// Prometheus scrape of GET /metrics.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// atomicFloat is a float64 updated with compare-and-swap, so counters
// and gauges can carry fractional values (seconds slept, utilizations)
// without a mutex on the hot path.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) Set(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing metric. Negative increments are
// ignored rather than corrupting monotonicity.
type Counter struct {
	v atomicFloat
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds v (ignored when negative).
func (c *Counter) Add(v float64) {
	if v > 0 {
		c.v.Add(v)
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomicFloat
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.v.Set(v) }

// Add shifts the gauge by v (may be negative).
func (g *Gauge) Add(v float64) { g.v.Add(v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram with a running sum and count,
// exposed in Prometheus cumulative-bucket form. Observations are
// lock-free; a concurrent scrape sees each atomic consistently (the
// usual Prometheus relaxation: sum/count/buckets may momentarily skew
// by in-flight observations).
type Histogram struct {
	uppers []float64       // sorted inclusive upper bounds, +Inf implicit
	counts []atomic.Uint64 // len(uppers)+1; last is the +Inf overflow
	sum    atomicFloat
	count  atomic.Uint64
}

func newHistogram(uppers []float64) *Histogram {
	u := append([]float64(nil), uppers...)
	sort.Float64s(u)
	return &Histogram{uppers: u, counts: make([]atomic.Uint64, len(u)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.uppers, v) // first upper bound >= v
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// DefBuckets are the default latency buckets (seconds), spanning the
// sub-millisecond in-process portal path out to multi-second retries.
var DefBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// metricType tags a family for TYPE lines and registration checks.
type metricType int

const (
	counterType metricType = iota
	gaugeType
	histogramType
)

func (t metricType) String() string {
	switch t {
	case counterType:
		return "counter"
	case gaugeType:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one named metric with zero or more labelled children.
type family struct {
	name    string
	help    string
	typ     metricType
	labels  []string
	buckets []float64

	mu       sync.Mutex
	children map[string]interface{} // label-value key -> *Counter/*Gauge/*Histogram
}

// labelKey joins label values into a map key. \xff cannot appear in
// UTF-8 label values, so the join is unambiguous.
func labelKey(values []string) string { return strings.Join(values, "\xff") }

func (f *family) child(values []string) interface{} {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %s has %d labels, got %d values", f.name, len(f.labels), len(values)))
	}
	key := labelKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	var c interface{}
	switch f.typ {
	case counterType:
		c = &Counter{}
	case gaugeType:
		c = &Gauge{}
	case histogramType:
		c = newHistogram(f.buckets)
	}
	f.children[key] = c
	return c
}

// Registry holds metric families and renders them in Prometheus text
// format. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string // registration order, for stable exposition
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// registerFamily returns the named family, creating it on first use. A
// name re-registered with a different type or label arity panics: that
// is a programming error, not an operational condition.
func (r *Registry) registerFamily(name, help string, typ metricType, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("telemetry: %s re-registered as %s with %d labels (was %s with %d)",
				name, typ, len(labels), f.typ, len(f.labels)))
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		typ:      typ,
		labels:   append([]string(nil), labels...),
		buckets:  append([]float64(nil), buckets...),
		children: map[string]interface{}{},
	}
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

// Counter registers (or finds) an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.registerFamily(name, help, counterType, nil, nil).child(nil).(*Counter)
}

// Gauge registers (or finds) an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.registerFamily(name, help, gaugeType, nil, nil).child(nil).(*Gauge)
}

// Histogram registers (or finds) an unlabelled histogram with the given
// upper bounds (nil takes DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	return r.registerFamily(name, help, histogramType, nil, buckets).child(nil).(*Histogram)
}

// CounterVec is a counter family keyed by label values.
type CounterVec struct{ f *family }

// CounterVec registers (or finds) a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.registerFamily(name, help, counterType, labels, nil)}
}

// With returns the child counter for the given label values, creating
// it at zero on first use.
func (v *CounterVec) With(values ...string) *Counter { return v.f.child(values).(*Counter) }

// HistogramVec is a histogram family keyed by label values.
type HistogramVec struct{ f *family }

// HistogramVec registers (or finds) a labelled histogram family (nil
// buckets take DefBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{r.registerFamily(name, help, histogramType, labels, buckets)}
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.child(values).(*Histogram) }

// formatValue renders a sample value the way Prometheus expects.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// escapeHelp escapes a HELP text per the text-format rules; an
// unescaped newline or backslash would break the line-oriented format.
func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	h = strings.ReplaceAll(h, "\n", `\n`)
	return h
}

// escapeLabel escapes a label value per the text-format rules.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// labelString renders {k="v",...} for the given names and values, with
// extra appended last (used for histogram le bounds). Empty input
// renders nothing.
func labelString(names, values []string, extra ...string) string {
	if len(names) == 0 && len(extra) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, n, escapeLabel(values[i]))
	}
	for i, e := range extra {
		if len(names) > 0 || i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(e)
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus renders every family in Prometheus text exposition
// format (version 0.0.4), families in registration order and children
// sorted by label values for deterministic output.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	order := append([]string(nil), r.order...)
	fams := make([]*family, len(order))
	for i, n := range order {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)

		f.mu.Lock()
		keys := make([]string, 0, len(f.children))
		for k := range f.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		children := make([]interface{}, len(keys))
		for i, k := range keys {
			children[i] = f.children[k]
		}
		f.mu.Unlock()

		for i, key := range keys {
			var values []string
			if len(f.labels) > 0 {
				values = strings.Split(key, "\xff")
			}
			switch c := children[i].(type) {
			case *Counter:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, labelString(f.labels, values), formatValue(c.Value()))
			case *Gauge:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, labelString(f.labels, values), formatValue(c.Value()))
			case *Histogram:
				cum := uint64(0)
				for bi, upper := range c.uppers {
					cum += c.counts[bi].Load()
					le := fmt.Sprintf(`le="%s"`, formatValue(upper))
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, labelString(f.labels, values, le), cum)
				}
				cum += c.counts[len(c.uppers)].Load()
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, labelString(f.labels, values, `le="+Inf"`), cum)
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, labelString(f.labels, values), formatValue(c.Sum()))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, labelString(f.labels, values), cum)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Handler returns the GET /metrics exposition handler.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
