package portal

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p4p/internal/core"
)

// pollViews are two ISP-B-sized views that differ in every distance and
// in version, as two successive price updates would.
func pollViews() [2]*core.View {
	var views [2]*core.View
	for i := range views {
		v := ispBView()
		v.Version = i + 1
		for _, row := range v.D {
			for j := range row {
				row[j] += float64(i)
			}
		}
		views[i] = v
	}
	return views
}

// viewPollServer serves pollViews pre-encoded in binary under distinct
// ETags. With alternate set, a client revalidating view 0 gets view 1
// and any other request view 0, so every poll is a 200; without it the
// server always holds view 0, so every poll after the first is a 304.
func viewPollServer(tb testing.TB, alternate bool) *httptest.Server {
	tb.Helper()
	var etags, clens [2][]string
	var bodies [2][]byte
	for i, v := range pollViews() {
		body, err := EncodeView(v, FormBinary)
		if err != nil {
			tb.Fatal(err)
		}
		bodies[i] = body
		etags[i] = []string{fmt.Sprintf(`"poll-%d"`, i)}
		clens[i] = []string{strconv.Itoa(len(body))}
	}
	ct := []string{BinaryViewType}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inm := r.Header.Get("If-None-Match")
		next := 0
		if alternate && inm == etags[0][0] {
			next = 1
		}
		hdr := w.Header()
		hdr["Etag"] = etags[next]
		if inm == etags[next][0] {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		hdr["Content-Type"] = ct
		hdr["Content-Length"] = clens[next]
		w.Write(bodies[next])
	}))
	tb.Cleanup(srv.Close)
	return srv
}

// bytesPerPoll is testing.AllocsPerRun in bytes: the heap allocated per
// call of poll, by every goroutine (the test server's included), after
// one warm-up call.
func bytesPerPoll(runs int, poll func()) float64 {
	poll()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		poll()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestClientViewPollAllocs pins the client's read path: a 304 poll
// allocates no body, and a 200 poll allocates the view it returns and
// little else, because the response is read into a pooled buffer.
func TestClientViewPollAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const n = 52
	// What the returned view owns: the flat matrix, its row headers and
	// the PIDs.
	viewBytes := float64(8*n*n + 24*n + 8*n)
	// The fixed cost of one poll, both ends of net/http included.
	const budget = 12 << 10
	poll := func(c *Client) func() {
		return func() {
			if _, err := c.DistancesContext(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	}
	got304 := bytesPerPoll(200, poll(NewClient(viewPollServer(t, false).URL, "")))
	got200 := bytesPerPoll(200, poll(NewClient(viewPollServer(t, true).URL, "")))
	t.Logf("bytes per poll: 304 %.0f, 200 %.0f (view %.0f)", got304, got200, viewBytes)
	if got304 > budget {
		t.Errorf("a 304 poll allocated %.0f bytes, want <= %d", got304, budget)
	}
	if got200 > viewBytes+budget {
		t.Errorf("a 200 poll allocated %.0f bytes, want <= the view's %.0f + %d", got200, viewBytes, budget)
	}
}

// TestClientViewsOwnTheirMemory: every view, batch result and error a
// client returns survives the requests after it, so none aliases a
// pooled buffer. Four goroutines share one client for the views.
func TestClientViewsOwnTheirMemory(t *testing.T) {
	want := pollViews()
	c := NewClient(viewPollServer(t, true).URL, "")
	var got [4][]*core.View
	var errs [4]error
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50 && errs[g] == nil; i++ {
				var v *core.View
				v, errs[g] = c.DistancesContext(context.Background())
				got[g] = append(got[g], v)
			}
		}()
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		for _, v := range got[g] {
			sameBits(t, v, want[v.Version-1])
		}
	}

	// The batch endpoint answers request k with version k, as a 200 for
	// even k and a 400 naming k for odd k.
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if k := calls.Add(1); k%2 == 0 {
			fmt.Fprintf(w, `{"version":%d,"distances":[%d]}`, k, k)
		} else {
			w.WriteHeader(http.StatusBadRequest)
			fmt.Fprintf(w, `{"error":"request %d refused"}`, k)
		}
	}))
	defer srv.Close()
	c = NewClient(srv.URL, "")
	results := make([]BatchResponseWire, 101)
	batchErrs := make([]error, 101)
	for k := 1; k <= 100; k++ {
		results[k], batchErrs[k] = postBatch(c, []PIDPair{{Src: 0, Dst: 1}})
	}
	for k := 1; k <= 100; k++ {
		res, err := results[k], batchErrs[k]
		if k%2 == 0 {
			if err != nil || res.Version != k || res.Distances[0] != float64(k) {
				t.Fatalf("request %d: %+v, %v", k, res, err)
			}
		} else if want := fmt.Sprintf("request %d refused", k); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("request %d: error %v, want %q", k, err, want)
		}
	}
}

// TestClientRefusesOversizedResponse: a body one byte over
// maxResponseBody fails the request, naming the limit, instead of
// reaching the decoder cut short.
func TestClientRefusesOversizedResponse(t *testing.T) {
	view, err := EncodeView(pollViews()[0], "raw")
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(view)
		// JSON padded with whitespace: cut at the cap, it still decodes.
		pad := strings.Repeat(" ", 1<<16)
		for left := maxResponseBody + 1 - len(view); left > 0; left -= len(pad) {
			io.WriteString(w, pad[:min(left, len(pad))])
		}
	}))
	defer srv.Close()
	c := NewClient(srv.URL, "")
	c.Retry = fastRetry(1)
	// Reading 64 MiB over loopback can take seconds on a loaded box; the
	// limit is under test here, not the per-attempt deadline.
	c.Retry.PerAttempt = time.Minute
	v, err := c.DistancesContext(context.Background())
	if err == nil || !strings.Contains(err.Error(), "64 MiB response limit") {
		t.Fatalf("got view %p, error %v; want the 64 MiB limit named", v, err)
	}
}
