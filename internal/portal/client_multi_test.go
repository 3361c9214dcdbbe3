package portal

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"p4p/internal/core"
	"p4p/internal/topology"
)

// markedPortal serves a distances view whose Version doubles as a
// portal marker, with full ETag revalidation, counting 200s, 304s and
// requests that present an ETag it never issued.
type markedPortal struct {
	mu      sync.Mutex
	marker  int
	full    int
	reval   int
	foreign int
	issued  map[string]bool
}

func (p *markedPortal) etagLocked() string {
	return fmt.Sprintf("%q", fmt.Sprintf("portal-%d", p.marker))
}

func (p *markedPortal) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/p4p/v1/distances" {
		http.NotFound(w, r)
		return
	}
	// Snapshot under the lock, write without it (lockheld: never hold a
	// mutex across ResponseWriter calls).
	p.mu.Lock()
	marker, etag := p.marker, p.etagLocked()
	p.mu.Unlock()
	inm := r.Header.Get("If-None-Match")
	p.mu.Lock()
	if inm != "" && !p.issued[inm] {
		p.foreign++
	}
	p.mu.Unlock()
	if inm == etag {
		p.mu.Lock()
		p.reval++
		p.mu.Unlock()
		w.Header().Set("ETag", etag)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	p.mu.Lock()
	p.full++
	if p.issued == nil {
		p.issued = map[string]bool{}
	}
	p.issued[etag] = true
	p.mu.Unlock()
	v := &core.View{
		Version: marker,
		PIDs:    []topology.PID{0, 1},
		D:       [][]float64{{0, float64(marker)}, {float64(marker), 0}},
	}
	w.Header().Set("ETag", etag)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(ToWire(v))
}

// TestClientWithBaseKeepsViewsApart hammers two distinct portals
// through WithBase clones of a single client, concurrently, and asserts
// neither ever sees the other's view or ETag: a clone holds its own
// view, and a client whose BaseURL changes drops the old portal's
// validator. Run under -race this also exercises the held view's
// concurrency safety.
func TestClientWithBaseKeepsViewsApart(t *testing.T) {
	p1 := &markedPortal{marker: 101}
	p2 := &markedPortal{marker: 202}
	s1 := httptest.NewServer(p1)
	s2 := httptest.NewServer(p2)
	t.Cleanup(s1.Close)
	t.Cleanup(s2.Close)

	base := NewClient(s1.URL, "")
	c1 := base // the base client itself targets portal 1
	c2 := base.WithBase(s2.URL)

	const iters = 50
	var wg sync.WaitGroup
	errs := make(chan error, 2*iters)
	hammer := func(c *Client, marker int) {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			v, err := c.DistancesContext(context.Background())
			if err != nil {
				errs <- err
				return
			}
			if v.Version != marker {
				errs <- fmt.Errorf("portal %d served version %d: cross-base cache bleed", marker, v.Version)
				return
			}
		}
	}
	wg.Add(2)
	go hammer(c1, 101)
	go hammer(c2, 202)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Each portal served exactly one full body; everything after was a
	// 304 against that portal's own ETag.
	p1.mu.Lock()
	full1, reval1 := p1.full, p1.reval
	p1.mu.Unlock()
	p2.mu.Lock()
	full2, reval2 := p2.full, p2.reval
	p2.mu.Unlock()
	if full1 != 1 || full2 != 1 {
		t.Errorf("full fetches = %d/%d, want 1/1 (conditional GETs not scoped per base?)", full1, full2)
	}
	if reval1 != iters-1 || reval2 != iters-1 {
		t.Errorf("revalidations = %d/%d, want %d each", reval1, reval2, iters-1)
	}

	// ViewETag is per client too.
	if e1, e2 := c1.ViewETag(), c2.ViewETag(); e1 == e2 || e1 == "" || e2 == "" {
		t.Errorf("ViewETag not scoped per base: %q vs %q", e1, e2)
	}

	// A marker bump on one portal invalidates only that portal's entry.
	p2.mu.Lock()
	p2.marker = 203
	p2.mu.Unlock()
	v, err := c2.DistancesContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v.Version != 203 {
		t.Fatalf("portal 2 after bump served version %d", v.Version)
	}
	v, err = c1.DistancesContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v.Version != 101 {
		t.Fatalf("portal 1 disturbed by portal 2's bump: version %d", v.Version)
	}
	p1.mu.Lock()
	full1 = p1.full
	p1.mu.Unlock()
	if full1 != 1 {
		t.Errorf("portal 1 refetched a full body (%d) after portal 2 changed", full1)
	}

	// A clone at the same base shares no view: its first fetch is a 200.
	if _, err := c1.WithBase(s1.URL).DistancesContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Repointing a client sends the new portal no stale validator, and
	// the client reports no ETag until the new portal has answered.
	c1.BaseURL = s2.URL
	if e := c1.ViewETag(); e != "" {
		t.Errorf("repointed client reports the old portal's ETag %q", e)
	}
	if v, err = c1.DistancesContext(context.Background()); err != nil || v.Version != 203 {
		t.Fatalf("repointed client: %v, %v; want version 203", v, err)
	}
	p1.mu.Lock()
	full1, foreign1 := p1.full, p1.foreign
	p1.mu.Unlock()
	p2.mu.Lock()
	full2, foreign2 := p2.full, p2.foreign
	p2.mu.Unlock()
	if full1 != 2 || full2 != 3 {
		t.Errorf("full fetches = %d/%d, want 2/3 (the clone and the repointed client fetch afresh)", full1, full2)
	}
	if foreign1 != 0 || foreign2 != 0 {
		t.Errorf("requests presenting another portal's ETag = %d/%d, want 0/0", foreign1, foreign2)
	}
}
