package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p4p/internal/apptracker"
	"p4p/internal/core"
	"p4p/internal/federation"
	"p4p/internal/portal"
	"p4p/internal/topology"
)

type fixedViews struct{ v *core.View }

func (f fixedViews) ViewFor(int) apptracker.DistanceView { return f.v }

// TestSelectRouteUnknownPIDs: a request naming PIDs the held view does
// not list — a client's bad input, or a partial view during a cold start
// with one portal down — used to panic inside the selector, and the
// client saw its connection dropped. It gets its m peers. A body past
// the 8 MiB cap used to be buffered and answered whatever its size; it
// gets a 413 in the JSON error envelope.
func TestSelectRouteUnknownPIDs(t *testing.T) {
	view := &core.View{
		PIDs: []topology.PID{0, 1, 2},
		D:    [][]float64{{0, 1, 10}, {1, 0, 10}, {10, 10, 0}},
	}
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	mux := http.NewServeMux()
	mux.Handle("POST /select", selectRoute(logger, fixedViews{view}, rand.New(rand.NewSource(1)), 20))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	for name, body := range map[string]string{
		"unknown candidate PID": `{"self":{"ID":0,"PID":0,"ASN":1},"m":3,"candidates":[
			{"ID":1,"PID":0,"ASN":1},{"ID":2,"PID":99,"ASN":1},{"ID":3,"PID":1,"ASN":1},{"ID":4,"PID":98,"ASN":2}]}`,
		"unknown self PID": `{"self":{"ID":0,"PID":99,"ASN":1},"m":3,"candidates":[
			{"ID":1,"PID":0,"ASN":1},{"ID":2,"PID":1,"ASN":1},{"ID":3,"PID":2,"ASN":1},{"ID":4,"PID":2,"ASN":2}]}`,
		"oversized body": `{"self":{"ID":0,"PID":0,"ASN":1},"m":3,"candidates":[` +
			strings.Repeat(`{"ID":1,"PID":0,"ASN":1},`, maxSelectBody/25) + `{"ID":2,"PID":1,"ASN":1}]}`,
	} {
		resp, err := http.Post(srv.URL+"/select", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var out struct {
			selectResponse
			errorResponse
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if len(body) > maxSelectBody {
			if resp.StatusCode != http.StatusRequestEntityTooLarge || err != nil || out.Error == "" {
				t.Errorf("%s: status %d, decode error %v, error %q; want 413 with an error envelope", name, resp.StatusCode, err, out.Error)
			}
			continue
		}
		if resp.StatusCode != http.StatusOK || err != nil || len(out.Indices) != 3 {
			t.Errorf("%s: status %d, decode error %v, indices %v; want 200 with 3 indices", name, resp.StatusCode, err, out.Indices)
		}
	}
}

// plainNode and plainRequest are the /select request as encoding/json
// decodes it reflectively, without apptracker.Node's UnmarshalJSON.
type plainNode struct {
	ID  int
	PID topology.PID
	ASN int
}

type plainRequest struct {
	Self       plainNode   `json:"self"`
	Candidates []plainNode `json:"candidates"`
	M          int         `json:"m"`
}

// TestSelectRouteMatchesStdlibDecode: every body gets the status and the
// indices through selectRoute that a stdlib-decoded request gets from an
// identically seeded P4P — for canonical and non-canonical spellings of
// the candidates, for m outside 1..n, and for hostile bodies.
func TestSelectRouteMatchesStdlibDecode(t *testing.T) {
	view := &core.View{
		PIDs: []topology.PID{0, 1, 2},
		D:    [][]float64{{0, 1, 10}, {1, 0, 10}, {10, 10, 0}},
	}
	const seed, mDefault = 5, 4
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	cands := `{"ID":1,"PID":0,"ASN":1},{"ID":2,"PID":1,"ASN":1},{"ID":3,"PID":2,"ASN":1},{"ID":4,"PID":0,"ASN":2},{"ID":5,"PID":1,"ASN":2},{"ID":6,"PID":0,"ASN":1}`
	self := `"self":{"ID":0,"PID":0,"ASN":1}`
	// A body of exactly size bytes: padding whitespace before its last
	// candidate, so the JSON value ends on the last byte.
	capBody := func(size int) string {
		head := `{` + self + `,"m":3,"candidates":[` + strings.Repeat(`{"ID":1,"PID":0,"ASN":1},`, (maxSelectBody-100)/25)
		tail := `{"ID":2,"PID":1,"ASN":1}]}`
		return head + strings.Repeat(" ", size-len(head)-len(tail)) + tail
	}
	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"canonical", `{` + self + `,"m":3,"candidates":[` + cands + `]}`, http.StatusOK},
		{"keys reordered and repeated, whitespace", "{ \"m\" : 3 ,\n\t\"candidates\" : [ {\"ASN\":1, \"PID\":0,\"ID\":9,\"ID\":1} ,{ \"PID\" : 1 ,\r\"ASN\" : 1 , \"ID\" : 2 } ,\n" +
			`{"ASN":1,"ID":3,"PID":2},{"PID":0,"ASN":2,"ID":4},{"ID":5,"ASN":2,"PID":1},{"ASN":1,"PID":0,"ID":6} ] , ` + self + " }\n", http.StatusOK},
		{"case-folded, escaped and unknown keys",
			`{"self":{"id":0,"pid":0,"asn":1},"m":3,"candidates":[{"ID":1,"PID":0,"ASN":1,"port":6881},{"\u0049D":2,"Pid":1,"AſN":1},{"ID":3,"PID":2,"ASN":1,"ip":null},` +
				`{"ID":4,"PID":0,"ASN":2},{"ID":5,"PID":1,"ASN":2},{"ID":6,"PID":0,"ASN":1}]}`, http.StatusOK},
		{"null and -0 values", `{` + self + `,"m":3,"candidates":[{"ID":1,"PID":null,"ASN":1},null,{"ID":-0,"PID":2,"ASN":1},` + cands + `]}`, http.StatusOK},
		{"19-digit ID", `{` + self + `,"m":2,"candidates":[{"ID":1234567890123456789,"PID":1,"ASN":1},` + cands + `]}`, http.StatusOK},
		{"m = 0 takes the default", `{` + self + `,"m":0,"candidates":[` + cands + `]}`, http.StatusOK},
		{"m < 0 takes the default", `{` + self + `,"m":-3,"candidates":[` + cands + `]}`, http.StatusOK},
		{"m absent takes the default", `{` + self + `,"candidates":[` + cands + `]}`, http.StatusOK},
		{"m > n", `{` + self + `,"m":50,"candidates":[` + cands + `]}`, http.StatusOK},
		{"self absent", `{"self":{"ID":99,"PID":1,"ASN":1},"m":3,"candidates":[` + cands + `]}`, http.StatusOK},
		{"self listed", `{` + self + `,"m":3,"candidates":[{"ID":0,"PID":0,"ASN":1},` + cands + `]}`, http.StatusOK},
		{"empty candidates", `{` + self + `,"m":3,"candidates":[]}`, http.StatusOK},
		{"no candidates", `{` + self + `,"m":3}`, http.StatusOK},
		{"float ID", `{` + self + `,"m":3,"candidates":[{"ID":1.5,"PID":0,"ASN":1}]}`, http.StatusBadRequest},
		{"exponent ID", `{` + self + `,"m":3,"candidates":[{"ID":1e3,"PID":0,"ASN":1}]}`, http.StatusBadRequest},
		{"string ID", `{` + self + `,"m":3,"candidates":[{"ID":"1","PID":0,"ASN":1}]}`, http.StatusBadRequest},
		{"overflowing ID", `{` + self + `,"m":3,"candidates":[{"ID":92233720368547758070,"PID":0,"ASN":1}]}`, http.StatusBadRequest},
		{"overflowing self PID", `{"self":{"ID":0,"PID":-99999999999999999999,"ASN":1},"m":3,"candidates":[` + cands + `]}`, http.StatusBadRequest},
		{"candidate not an object", `{` + self + `,"m":3,"candidates":[7]}`, http.StatusBadRequest},
		{"malformed", `{` + self + `,"m":3,"candidates":[{"ID":01}]}`, http.StatusBadRequest},
		{"body at the cap", capBody(maxSelectBody), http.StatusOK},
		{"body over the cap", capBody(maxSelectBody + 1), http.StatusRequestEntityTooLarge},
	} {
		rec := httptest.NewRecorder()
		route := selectRoute(logger, fixedViews{view}, rand.New(rand.NewSource(seed)), mDefault)
		route(rec, httptest.NewRequest(http.MethodPost, "/select", strings.NewReader(tc.body)))
		var got struct {
			selectResponse
			errorResponse
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("%s: decode reply: %v", tc.name, err)
		}

		status, want := http.StatusOK, []int{}
		var req plainRequest
		if err := json.NewDecoder(strings.NewReader(tc.body)).Decode(&req); len(tc.body) > maxSelectBody {
			status = http.StatusRequestEntityTooLarge
		} else if err != nil {
			status = http.StatusBadRequest
		} else {
			if req.M <= 0 {
				req.M = mDefault
			}
			nodes := make([]apptracker.Node, len(req.Candidates))
			for i, c := range req.Candidates {
				nodes[i] = apptracker.Node(c)
			}
			oracle := &apptracker.P4P{Views: fixedViews{view}}
			if idx := oracle.Select(apptracker.Node(req.Self), nodes, req.M, rand.New(rand.NewSource(seed))); idx != nil {
				want = idx
			}
		}
		if rec.Code != status || rec.Code != tc.status {
			t.Errorf("%s: status %d, stdlib decode gives %d, want %d (%s)", tc.name, rec.Code, status, tc.status, got.Error)
			continue
		}
		if status == http.StatusOK && !slices.Equal(got.Indices, want) {
			t.Errorf("%s: indices %v, stdlib-decoded request gives %v", tc.name, got.Indices, want)
		}
		if status != http.StatusOK && got.Error == "" {
			t.Errorf("%s: status %d without an error envelope", tc.name, rec.Code)
		}
	}
}

// TestSelectRouteContentLength: a /select answer larger than net/http's
// 2 KiB response buffer used to go out chunked, with no Content-Length,
// because the route wrote its JSON without one. It is sized now.
func TestSelectRouteContentLength(t *testing.T) {
	view := &core.View{PIDs: []topology.PID{0, 1}, D: [][]float64{{0, 1}, {1, 0}}}
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	mux := http.NewServeMux()
	mux.Handle("POST /select", selectRoute(logger, fixedViews{view}, rand.New(rand.NewSource(1)), 20))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	const n = 700
	cands := make([]apptracker.Node, n)
	for i := range cands {
		cands[i] = apptracker.Node{ID: i + 1, PID: topology.PID(i % 2), ASN: 1}
	}
	req, err := json.Marshal(selectRequest{Self: apptracker.Node{PID: 0, ASN: 1}, Candidates: cands, M: n})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/select", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var out selectResponse
	if err := json.Unmarshal(body, &out); err != nil || len(out.Indices) < 600 {
		t.Fatalf("status %d, decode error %v, %d indices; want >= 600", resp.StatusCode, err, len(out.Indices))
	}
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("Content-Length %d, Transfer-Encoding %v for a %d-byte body; want a sized, unchunked response",
			resp.ContentLength, resp.TransferEncoding, len(body))
	}
}

// gate parks portal requests: each signals parked (without blocking; one
// pending signal is enough) and is held until open runs or its client
// gives up; unparked counts the held requests that have let go.
type gate struct {
	parked   chan struct{}
	release  chan struct{}
	open     func()
	unparked atomic.Int64
}

func newGate() *gate {
	g := &gate{parked: make(chan struct{}, 1), release: make(chan struct{})}
	g.open = sync.OnceFunc(func() { close(g.release) })
	return g
}

// parkingPortal serves view on /p4p/v1/distances as an iTracker does,
// without an ETag, and parks every request after the first at its gate.
type parkingPortal struct {
	view   *core.View
	gate   *gate
	served atomic.Int64
}

func (p *parkingPortal) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if p.served.Add(1) > 1 {
		select {
		case p.gate.parked <- struct{}{}:
		default:
		}
		select {
		case <-p.gate.release:
		case <-r.Context().Done():
		}
		p.gate.unparked.Add(1)
	}
	body, err := portal.EncodeView(p.view, "raw")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// TestSelectAnsweredDuringRefresh: the route held its selector mutex
// across P4P.Select, whose ViewFor runs a due portal refresh in the
// caller's goroutine, so one slow portal queued every /select behind it
// for up to the 10 s refresh timeout. The view is read before the mutex
// now: while one request's refresh is parked at the portal, a second is
// answered from the last-known-good view, over one portal and over two.
func TestSelectAnsweredDuringRefresh(t *testing.T) {
	east := &core.View{PIDs: []topology.PID{0, 1}, D: [][]float64{{0, 1}, {1, 0}}}
	west := &core.View{PIDs: []topology.PID{10, 11}, D: [][]float64{{0, 4}, {4, 0}}}
	serve := func(t *testing.T, g *gate, v *core.View) string {
		srv := httptest.NewServer(&parkingPortal{view: v, gate: g})
		t.Cleanup(srv.Close)
		t.Cleanup(g.open) // runs before srv.Close, which waits for parked requests
		return srv.URL
	}
	// A 1 ns TTL makes every read after the first one due for a refresh.
	// coalesces is nil where the provider does not count them.
	providers := map[string]func(t *testing.T, g *gate) (views apptracker.ViewProvider, coalesces func() int64){
		"PortalViews": func(t *testing.T, g *gate) (apptracker.ViewProvider, func() int64) {
			views := apptracker.NewPortalViews(portal.NewClient(serve(t, g, east), ""), time.Nanosecond)
			return views, func() int64 { return views.Stats().Coalesces }
		},
		"MultiPortalViews": func(t *testing.T, g *gate) (apptracker.ViewProvider, func() int64) {
			eastURL, westURL := serve(t, g, east), serve(t, g, west)
			refs := []apptracker.PortalRef{{URL: eastURL}, {URL: westURL}}
			circuits := []federation.Circuit{{A: eastURL, APID: 1, B: westURL, BPID: 10, Cost: 7}}
			return apptracker.NewMultiPortalViews(portal.NewClient(eastURL, ""), refs, circuits, time.Nanosecond), nil
		},
	}
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	const body = `{"self":{"ID":0,"PID":0,"ASN":1},"m":2,"candidates":[{"ID":1,"PID":0,"ASN":1},{"ID":2,"PID":1,"ASN":1},{"ID":3,"PID":1,"ASN":1}]}`
	for name, build := range providers {
		t.Run(name, func(t *testing.T) {
			g := newGate()
			views, coalesces := build(t, g)
			if views.ViewFor(1) == nil { // prime the last-known-good view
				t.Fatal("no view after the first fetch")
			}
			route := selectRoute(logger, views, rand.New(rand.NewSource(1)), 20)
			post := func(done chan<- *httptest.ResponseRecorder) {
				rec := httptest.NewRecorder()
				route(rec, httptest.NewRequest(http.MethodPost, "/select", strings.NewReader(body)))
				done <- rec
			}
			first, second := make(chan *httptest.ResponseRecorder, 1), make(chan *httptest.ResponseRecorder, 1)
			go post(first)
			select {
			case <-g.parked:
			case <-time.After(5 * time.Second):
				t.Fatal("the first /select never reached the portal")
			}
			go post(second)
			select {
			case rec := <-second:
				var out selectResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &out); rec.Code != http.StatusOK || err != nil || len(out.Indices) != 2 {
					t.Errorf("second /select: status %d, decode error %v, indices %v; want 200 with 2 indices", rec.Code, err, out.Indices)
				}
				if n := g.unparked.Load(); n != 0 {
					t.Errorf("second /select answered only after %d parked fetch(es) gave up", n)
				}
				if coalesces != nil && coalesces() != 1 {
					t.Errorf("coalesces = %d, want 1", coalesces())
				}
			case <-time.After(5 * time.Second):
				t.Error("second /select still blocked 5s into the first one's parked refresh")
			}
			g.open()
			select {
			case <-first:
			case <-time.After(10 * time.Second):
				t.Fatal("the first /select never finished after the portal let go")
			}
		})
	}
}

// TestMisconfiguredFlagsExit2: -m 0 made every /select without m answer
// {"indices":[]}, and -view-ttl 0 served with the default TTL while
// /readyz (window 3x the flag, 0 meaning any held view) never aged out.
// -portal-retries 0 made 3 attempts, -trace-sample or -trace-keep NaN
// never sampled or kept a trace, -trace-cap 0 was raised to 1, and an
// empty -itracker entry started a portal whose every refresh failed. The
// daemon now refuses each at startup with exit 2; the test runs main in
// a child process of the test binary.
func TestMisconfiguredFlagsExit2(t *testing.T) {
	if args := os.Getenv("APPTRACKER_TEST_ARGS"); args != "" {
		os.Args = append([]string{"apptracker"}, strings.Fields(args)...)
		main()
		return
	}
	for _, tc := range []struct{ args, want string }{
		{"-m 0", "must all be positive"},
		{"-m -3", "must all be positive"},
		{"-view-ttl 0s", "must all be positive"},
		{"-view-ttl -1s", "must all be positive"},
		{"-portal-retries 0", "must all be positive"},
		{"-portal-retries -2", "must all be positive"},
		{"-trace-sample NaN", "must both be in [0, 1]"},
		{"-trace-keep NaN", "must both be in [0, 1]"},
		{"-trace-sample 1.5", "must both be in [0, 1]"},
		{"-trace-keep -0.1", "must both be in [0, 1]"},
		{"-trace-cap 0", "must be at least 1"},
		{"-trace-cap -1", "must be at least 1"},
		{"-itracker=", "empty portal URL"},
		{"-itracker http://127.0.0.1:1,", "empty portal URL"},
		{"-itracker ,http://127.0.0.1:1", "empty portal URL"},
	} {
		// A daemon that accepted the flags would serve until killed.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestMisconfiguredFlagsExit2$")
		cmd.Env = append(os.Environ(), "APPTRACKER_TEST_ARGS=-listen 127.0.0.1:0 -itracker http://127.0.0.1:1 "+tc.args)
		out, err := cmd.CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), tc.want) {
			t.Errorf("apptracker %s: err %v, output %q; want exit 2 and %q", tc.args, err, out, tc.want)
		}
	}
}
