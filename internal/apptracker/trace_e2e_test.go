package apptracker

import (
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"p4p/internal/core"
	"p4p/internal/itracker"
	"p4p/internal/leaktest"
	"p4p/internal/portal"
	"p4p/internal/topology"
	"p4p/internal/trace"
)

// TestStitchedTraceAcrossProcesses is the end-to-end tracing
// acceptance test: an appTracker view refresh against a real portal
// server must produce ONE trace ID whose spans cover every layer —
// the refresh root and the client attempt on the appTracker side, and
// the server route plus the engine recompute/encode on the portal side
// — stitched across the HTTP boundary by the W3C traceparent header.
// Each side keeps its spans in its own collector, exactly as the two
// binaries would behind their /debug/traces endpoints.
func TestStitchedTraceAcrossProcesses(t *testing.T) {
	g := topology.Abilene()
	r := topology.ComputeRouting(g)
	e := core.NewEngine(g, r, core.Config{})
	itr := itracker.New(itracker.Config{Name: "t", ASN: 1}, e, itracker.SyntheticPIDMap(g))

	portalCol := trace.NewCollector(16, 0, 1)
	h := portal.NewHandler(itr)
	h.Telemetry.Tracer = &trace.Tracer{Collector: portalCol, SampleRate: 1}
	srv := httptest.NewServer(h)
	defer srv.Close()

	appCol := trace.NewCollector(16, 0, 1)
	views := NewPortalViews(portal.NewClient(srv.URL, ""), time.Minute)
	views.Tracer = &trace.Tracer{Collector: appCol, SampleRate: 1}
	leaktest.Check(t, views.Tracer, h.Telemetry.Tracer)

	if v := views.ViewFor(1); v == nil {
		t.Fatal("view refresh against live portal failed")
	}

	appSnap := appCol.Snapshot()
	if len(appSnap.Traces) != 1 {
		t.Fatalf("appTracker collector kept %d traces, want 1", len(appSnap.Traces))
	}
	appTrace := appSnap.Traces[0]
	traceID := appTrace.TraceID

	// The portal's server span ends on the server goroutine just after
	// the response is flushed, so it can land in the collector a beat
	// after the client returns; spin (no sleeping) until it shows up.
	var portalTrace *trace.WireTrace
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		snap := portalCol.Snapshot()
		for i := range snap.Traces {
			if snap.Traces[i].TraceID == traceID {
				portalTrace = &snap.Traces[i]
			}
		}
		if portalTrace != nil && len(portalTrace.Spans) >= 3 {
			break
		}
		portalTrace = nil
		runtime.Gosched()
	}
	if portalTrace == nil {
		t.Fatalf("portal collector never kept trace %s; snapshot: %+v", traceID, portalCol.Snapshot())
	}

	names := map[string]trace.WireSpan{}
	total := 0
	for _, s := range append(append([]trace.WireSpan(nil), appTrace.Spans...), portalTrace.Spans...) {
		names[s.Name] = s
		total++
	}
	if total < 4 {
		t.Fatalf("stitched trace has %d spans, want >= 4: %v", total, names)
	}
	for _, want := range []string{"view_refresh", "attempt", "distances", "encode", "recompute"} {
		if _, ok := names[want]; !ok {
			t.Errorf("stitched trace missing span %q; have %v", want, names)
		}
	}
	clientSpanSeen := false
	for n := range names {
		if strings.HasPrefix(n, "client GET ") {
			clientSpanSeen = true
		}
	}
	if !clientSpanSeen {
		t.Errorf("no client-side HTTP span; have %v", names)
	}

	// The refresh root starts the trace...
	if root := names["view_refresh"]; root.ParentSpanID != "" {
		t.Errorf("view_refresh has parent %q, want none", root.ParentSpanID)
	}
	// ...and the server span parents to the specific client attempt
	// whose headers it read, proving the traceparent crossed the wire.
	if att, srvSpan := names["attempt"], names["distances"]; srvSpan.ParentSpanID != att.SpanID {
		t.Errorf("server span parent = %q, want attempt span %q", srvSpan.ParentSpanID, att.SpanID)
	}
	// Both sides say what moved: the view travelled in binary, and the
	// attempt's byte count is the size the portal's encode span rendered.
	attr := func(span, key string) string {
		for _, a := range names[span].Attrs {
			if a.Key == key {
				return a.Value
			}
		}
		return ""
	}
	if enc, form := attr("attempt", "encoding"), attr("encode", "form"); enc != "binary" || form != portal.FormBinary {
		t.Errorf("attempt encoding %q, encode form %q; want binary, %s", enc, form, portal.FormBinary)
	}
	if got, want := attr("attempt", "http.response_bytes"), attr("encode", "bytes"); got == "" || got != want {
		t.Errorf("attempt http.response_bytes %q, encode bytes %q", got, want)
	}
}
