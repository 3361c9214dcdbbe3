package trace

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRingOverwritesOldest(t *testing.T) {
	c := NewCollector(3, 0, 1)
	tr := newTestTracer(t, c, time.Millisecond)
	for i := 0; i < 5; i++ {
		_, s := tr.StartRoot(context.Background(), "r")
		s.SetAttrInt("i", i)
		s.End()
	}
	snap := c.Snapshot()
	if snap.Kept != 5 {
		t.Fatalf("kept counter %d, want 5", snap.Kept)
	}
	if len(snap.Traces) != 3 {
		t.Fatalf("ring holds %d traces, want capacity 3", len(snap.Traces))
	}
	// Oldest first: traces 2, 3, 4 survive.
	for idx, want := range []string{"2", "3", "4"} {
		got := snap.Traces[idx].Spans[0].Attrs[0].Value
		if got != want {
			t.Errorf("ring[%d] is trace i=%s, want %s", idx, got, want)
		}
	}
}

func TestKeepRateZeroDropsFastCleanTraces(t *testing.T) {
	c := NewCollector(8, time.Hour, 0)
	tr := newTestTracer(t, c, time.Millisecond)
	for i := 0; i < 4; i++ {
		_, s := tr.StartRoot(context.Background(), "r")
		s.End()
	}
	snap := c.Snapshot()
	if snap.Kept != 0 || snap.SampledOut != 4 {
		t.Fatalf("kept=%d sampledOut=%d, want 0/4", snap.Kept, snap.SampledOut)
	}
}

func TestKeepRateDeterministic(t *testing.T) {
	c := NewCollector(8, time.Hour, 0.5)
	// Alternate draws below/above the 0.5 cutoff: (1<<52)% of 1<<53 is
	// exactly 0.5 (dropped, not <), while 0 keeps.
	draws := []uint64{0, 1 << 52, 0, 1 << 52}
	i := 0
	c.randFn = func() uint64 { v := draws[i%len(draws)]; i++; return v }
	tr := newTestTracer(t, c, time.Millisecond)
	for j := 0; j < 4; j++ {
		_, s := tr.StartRoot(context.Background(), "r")
		s.End()
	}
	snap := c.Snapshot()
	if snap.Kept != 2 || snap.SampledOut != 2 {
		t.Fatalf("kept=%d sampledOut=%d, want 2/2", snap.Kept, snap.SampledOut)
	}
}

// TestCollectorRefusesCapacityBelowOne: a capacity below 1 used to be
// raised to 1 without a word; a ring that can keep nothing is refused.
func TestCollectorRefusesCapacityBelowOne(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "at least 1") {
					t.Errorf("NewCollector(%d): recovered %v, want a panic naming the floor", capacity, r)
				}
			}()
			NewCollector(capacity, 0, 1)
		}()
	}
	if got := NewCollector(1, 0, 1).Snapshot().Capacity; got != 1 {
		t.Errorf("capacity %d, want 1", got)
	}
}

func TestHandlerServesJSON(t *testing.T) {
	c := NewCollector(4, 7*time.Millisecond, 0.25)
	c.randFn = func() uint64 { return 0 } // draw below KeepRate: always keep
	tr := newTestTracer(t, c, time.Millisecond)
	ctx, root := tr.StartRoot(context.Background(), "GET /p4p/v1/distances")
	_, child := StartSpan(ctx, "recompute")
	child.End()
	root.End()

	rr := httptest.NewRecorder()
	c.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/traces", nil))
	if rr.Code != 200 {
		t.Fatalf("status %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Errorf("content type %q", ct)
	}
	var snap WireSnapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatalf("response is not valid JSON: %v", err)
	}
	if snap.Capacity != 4 || snap.SlowThresholdUS != 7000 || snap.KeepRate != 0.25 {
		t.Errorf("config echo wrong: %+v", snap)
	}
	if len(snap.Traces) != 1 || len(snap.Traces[0].Spans) != 2 {
		t.Fatalf("payload traces wrong: %+v", snap.Traces)
	}
	if snap.Traces[0].TraceID == "" || snap.Traces[0].Spans[0].SpanID == "" {
		t.Error("IDs missing from wire form")
	}

	// The same endpoint while the ring is being overwritten: writers
	// push root+child traces through the capacity-4 collector and this
	// goroutine polls the handler until they finish, then once more.
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 200; i++ {
				ctx, root := tr.StartRoot(context.Background(), "GET /p4p/v1/distances")
				_, child := StartSpan(ctx, "recompute")
				child.End()
				root.End()
			}
		}()
	}
	done := make(chan struct{})
	go func() { writers.Wait(); close(done) }()
	for polling := true; polling; {
		select {
		case <-done:
			polling = false
		default:
		}
		rr := httptest.NewRecorder()
		c.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/traces", nil))
		if rr.Code != 200 {
			t.Fatalf("status %d under load", rr.Code)
		}
		var snap WireSnapshot
		if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
			t.Fatalf("response under load is not valid JSON: %v", err)
		}
		for _, kept := range snap.Traces {
			if kept.TraceID == "" || len(kept.Spans) < 1 {
				t.Fatalf("kept trace under load lacks an ID or spans: %+v", kept)
			}
		}
	}
}

// parkedWriter is a ResponseWriter whose Write closes writing and then
// waits for release: a /debug/traces client that stopped reading.
type parkedWriter struct {
	header           http.Header
	writing, release chan struct{}
}

func (w *parkedWriter) Header() http.Header { return w.header }
func (w *parkedWriter) WriteHeader(int)     {}
func (w *parkedWriter) Write(b []byte) (int, error) {
	close(w.writing)
	<-w.release
	return len(b), nil
}

// TestHandlerWritesOutsideLock pins the collector's handler against
// writing under c.mu: while a response write is parked, a root span on
// another goroutine still ends and is kept.
func TestHandlerWritesOutsideLock(t *testing.T) {
	c := NewCollector(4, time.Hour, 1)
	tr := newTestTracer(t, c, time.Millisecond)
	w := &parkedWriter{header: http.Header{}, writing: make(chan struct{}), release: make(chan struct{})}
	served := make(chan struct{})
	go func() {
		c.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/debug/traces", nil))
		close(served)
	}()
	select {
	case <-w.writing:
	case <-time.After(2 * time.Second):
		t.Fatal("the handler never wrote")
	}
	ended := make(chan struct{})
	go func() {
		_, root := tr.StartRoot(context.Background(), "GET /p4p/v1/distances")
		root.End()
		close(ended)
	}()
	select {
	case <-ended:
	case <-time.After(2 * time.Second):
		t.Error("a root span's End blocked behind a parked /debug/traces write")
	}
	close(w.release)
	<-served
	<-ended
	if kept := c.Snapshot().Kept; kept != 1 {
		t.Errorf("kept = %d, want 1", kept)
	}
}

func TestSnapshotAttrsAreCopies(t *testing.T) {
	c := NewCollector(4, 0, 1)
	tr := newTestTracer(t, c, time.Millisecond)
	_, root := tr.StartRoot(context.Background(), "r")
	root.SetAttr("k", "v")
	root.End()
	snap := c.Snapshot()
	snap.Traces[0].Spans[0].Attrs[0].Value = "mutated"
	if again := c.Snapshot(); again.Traces[0].Spans[0].Attrs[0].Value != "v" {
		t.Fatal("snapshot shares attr backing with the live span")
	}
}
