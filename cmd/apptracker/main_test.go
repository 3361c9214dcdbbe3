package main

import (
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
