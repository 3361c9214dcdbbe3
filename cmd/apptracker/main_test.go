package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"p4p/internal/apptracker"
	"p4p/internal/core"
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
	mux.Handle("POST /select", selectRoute(logger, &apptracker.P4P{Views: fixedViews{view}}, rand.New(rand.NewSource(1)), 20))
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

// TestSelectRouteContentLength: a /select answer larger than net/http's
// 2 KiB response buffer used to go out chunked, with no Content-Length,
// because the route wrote its JSON without one. It is sized now.
func TestSelectRouteContentLength(t *testing.T) {
	view := &core.View{PIDs: []topology.PID{0, 1}, D: [][]float64{{0, 1}, {1, 0}}}
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	mux := http.NewServeMux()
	mux.Handle("POST /select", selectRoute(logger, &apptracker.P4P{Views: fixedViews{view}}, rand.New(rand.NewSource(1)), 20))
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
