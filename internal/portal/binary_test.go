package portal

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"p4p/internal/core"
	"p4p/internal/itracker"
	"p4p/internal/topology"
)

// viewViaJSON is the oracle for the binary form: what a client that only
// speaks JSON ends up holding for v.
func viewViaJSON(v *core.View) (*core.View, error) {
	body, err := EncodeView(v, "raw")
	if err != nil {
		return nil, err
	}
	return decodeView(body, "json")
}

// viewViaBinary is the same trip in the binary form.
func viewViaBinary(v *core.View) (*core.View, error) {
	body, err := EncodeView(v, FormBinary)
	if err != nil {
		return nil, err
	}
	return decodeView(body, "binary")
}

// sameBits reports the first place two views differ, comparing distances
// by bit pattern so that -0 and +0 are told apart.
func sameBits(t *testing.T, got, want *core.View) {
	t.Helper()
	if got.Version != want.Version || len(got.PIDs) != len(want.PIDs) || len(got.D) != len(want.D) {
		t.Fatalf("version %d with %d PIDs and %d rows, want %d with %d and %d",
			got.Version, len(got.PIDs), len(got.D), want.Version, len(want.PIDs), len(want.D))
	}
	for i := range want.PIDs {
		if got.PIDs[i] != want.PIDs[i] || len(got.D[i]) != len(want.D[i]) {
			t.Fatalf("row %d: PID %d with %d columns, want PID %d with %d", i, got.PIDs[i], len(got.D[i]), want.PIDs[i], len(want.D[i]))
		}
		for j := range want.D[i] {
			if math.Float64bits(got.D[i][j]) != math.Float64bits(want.D[i][j]) {
				t.Fatalf("distance (%d,%d) = %v, want %v", i, j, got.D[i][j], want.D[i][j])
			}
		}
	}
}

// ispBView is a view of ISP-B's size (52 PIDs) with full-precision
// distances, as the engine produces them.
func ispBView() *core.View {
	const n = 52
	rng := rand.New(rand.NewSource(1))
	v := &core.View{Version: 42}
	for i := 0; i < n; i++ {
		v.PIDs = append(v.PIDs, topology.PID(i))
		row := make([]float64, n)
		for j := range row {
			row[j] = rng.Float64() * 40
		}
		v.D = append(v.D, row)
	}
	return v
}

func TestBinaryViewMatchesJSON(t *testing.T) {
	edge := &core.View{
		Version: -3,
		PIDs:    []topology.PID{40, -7, 1 << 40},
		D: [][]float64{
			{0, math.Inf(1), math.Copysign(0, -1)},
			{MaxDistance, 0, math.Inf(-1)},
			{5e-324, -2.5, 0.1234567890123456789},
		},
	}
	for name, v := range map[string]*core.View{"edge values": edge, "ISP-B": ispBView(), "empty": {Version: 1}} {
		want, err := viewViaJSON(v)
		if err != nil {
			t.Fatalf("%s via JSON: %v", name, err)
		}
		got, err := viewViaBinary(v)
		if err != nil {
			t.Fatalf("%s via binary: %v", name, err)
		}
		sameBits(t, got, want)
	}
	if body, _ := EncodeView(ispBView(), FormBinary); len(body) != 22064 {
		t.Errorf("ISP-B's binary view is %d bytes, want 22064", len(body))
	}
	// Both encoders fail closed on NaN, and both decoders refuse what
	// lies beyond MaxDistance.
	for _, d := range []float64{math.NaN(), MaxDistance * 2} {
		v := &core.View{PIDs: []topology.PID{0, 1}, D: [][]float64{{0, d}, {1, 0}}}
		if _, err := viewViaJSON(v); err == nil {
			t.Errorf("distance %v survived the JSON trip", d)
		}
		if _, err := viewViaBinary(v); err == nil {
			t.Errorf("distance %v survived the binary trip", d)
		}
	}
	if _, err := EncodeView(&core.View{PIDs: []topology.PID{0, 1}, D: [][]float64{{0, 1}, {1}}}, FormBinary); err == nil {
		t.Error("ragged view encoded")
	}
}

func TestDecodeBinaryViewRejects(t *testing.T) {
	good, err := EncodeView(&core.View{Version: 3, PIDs: []topology.PID{4, 9}, D: [][]float64{{0, 2}, {math.Inf(1), 0}}}, FormBinary)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeBinaryView(good); err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	setFloat := func(k int, d float64) []byte {
		return mutate(func(b []byte) []byte { le.PutUint64(b[binaryHeaderLen+16+8*k:], math.Float64bits(d)); return b })
	}
	bad := map[string][]byte{
		"empty":            nil,
		"JSON":             []byte(`{"pids":[0],"matrix":[[0]],"version":1}`),
		"header only":      good[:binaryHeaderLen],
		"next format byte": mutate(func(b []byte) []byte { b[3] = 2; return b }),
		"one byte short":   good[:len(good)-1],
		"one byte over":    append(append([]byte(nil), good...), 0),
		"n too small":      mutate(func(b []byte) []byte { le.PutUint32(b[12:], 1); return b }),
		"n = 2^32-1":       mutate(func(b []byte) []byte { le.PutUint32(b[12:], math.MaxUint32); return b }),
		"repeated PID":     mutate(func(b []byte) []byte { le.PutUint64(b[binaryHeaderLen+8:], 4); return b }),
		"NaN":              setFloat(1, math.NaN()),
		"+Inf":             setFloat(1, math.Inf(1)),
		"-Inf":             setFloat(1, math.Inf(-1)),
		"over MaxDistance": setFloat(2, MaxDistance*2),
	}
	for name, body := range bad {
		if v, err := decodeBinaryView(body); err == nil {
			t.Errorf("%s: accepted as %+v", name, v)
		}
	}
	// The tolerant sentinel holds in binary too.
	v, err := decodeBinaryView(setFloat(1, -0.25))
	if err != nil || !math.IsInf(v.D[0][1], 1) {
		t.Errorf("negative distance: %v, %v; want unreachable", v, err)
	}
	// A lying n buys no allocation: the length check comes first.
	huge := mutate(func(b []byte) []byte { le.PutUint32(b[12:], 1<<20); return b })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = decodeBinaryView(huge)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; err == nil || got > 64<<10 {
		t.Errorf("n = 2^20 in a %d-byte body: err %v after allocating %d bytes", len(huge), err, got)
	}
}

// jsonOnlyPortal is a portal from before the binary form (or a third
// party's): it ignores Accept and always answers JSON. accepts returns
// the Accept header of every request it has served.
func jsonOnlyPortal(t *testing.T, v *core.View) (srv *httptest.Server, accepts func() []string) {
	var mu sync.Mutex
	var seen []string
	etag := fmt.Sprintf(`"old-v%d"`, v.Version)
	srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		accept := r.Header.Get("Accept")
		mu.Lock()
		seen = append(seen, accept)
		mu.Unlock()
		w.Header().Set("ETag", etag)
		if r.Header.Get("If-None-Match") == etag {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(ToWire(v))
	}))
	t.Cleanup(srv.Close)
	return srv, func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), seen...)
	}
}

// TestClientEncodings: against this tree's portal the client moves the
// raw view in binary, and a request without Accept gets JSON; against a
// portal that ignores Accept it falls back to JSON; revalidation works
// either way, and the view held is the same one.
func TestClientEncodings(t *testing.T) {
	srv, tr := newTestPortal(t, itracker.Config{Name: "t", ASN: 1})
	want, err := tr.Distances("")
	if err != nil {
		t.Fatal(err)
	}
	old, accepts := jsonOnlyPortal(t, want)

	var got [2]*core.View
	for i, tc := range []struct {
		base, wantCT string
		wantBytes    int
	}{
		{srv.URL, BinaryViewType, binaryHeaderLen + 8*len(want.PIDs)*(len(want.PIDs)+1)},
		{old.URL, "application/json", 0},
	} {
		var cts []string
		var sizes []int
		c := NewClient(tc.base, "")
		c.HTTPClient = &http.Client{Transport: roundTripperFunc(func(r *http.Request) (*http.Response, error) {
			resp, err := http.DefaultTransport.RoundTrip(r)
			if err == nil {
				cts = append(cts, resp.Header.Get("Content-Type"))
				sizes = append(sizes, int(resp.ContentLength))
			}
			return resp, err
		})}
		if got[i], err = c.DistancesContext(context.Background()); err != nil {
			t.Fatalf("%s: %v", tc.wantCT, err)
		}
		again, err := c.DistancesContext(context.Background())
		if err != nil || again != got[i] {
			t.Errorf("%s: revalidation returned %p, %v; want the cached %p", tc.wantCT, again, err, got[i])
		}
		if len(cts) != 2 || cts[0] != tc.wantCT || cts[1] != "" {
			t.Errorf("Content-Types %q, want a %s 200 and a bare 304", cts, tc.wantCT)
		}
		if tc.wantBytes != 0 && sizes[0] != tc.wantBytes {
			t.Errorf("%s body of %d bytes, want %d", tc.wantCT, sizes[0], tc.wantBytes)
		}
		var plain ViewWire
		if err := callJSON(c, http.MethodGet, "/p4p/v1/distances?form=raw", nil, &plain); err != nil || cts[len(cts)-1] != "application/json" {
			t.Errorf("no Accept: %v, Content-Types %q; want JSON", err, cts)
		}
	}
	sameBits(t, got[0], want)
	sameBits(t, got[1], want)
	if sent := accepts(); len(sent) != 3 || !acceptsBinary(sent[:1]) || !acceptsBinary(sent[1:2]) || sent[2] != "" {
		t.Errorf("Accept headers sent %q; want the binary type on both view fetches, none on the plain request", sent)
	}
}

// TestClientRejectsRepeatedPID: a view that lists a PID twice would let
// the first column silently win every lookup; neither decoder lets it
// reach a caller.
func TestClientRejectsRepeatedPID(t *testing.T) {
	hostile := &core.View{Version: 1, PIDs: []topology.PID{3, 8, 3}, D: [][]float64{{0, 1, 9}, {1, 0, 1}, {9, 1, 0}}}
	for form, contentType := range map[string]string{"raw": "application/json", FormBinary: BinaryViewType} {
		body, err := EncodeView(hostile, form)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", contentType)
			w.Write(body)
		}))
		c := NewClient(srv.URL, "")
		v, err := c.DistancesContext(context.Background())
		srv.Close()
		if err == nil || !strings.Contains(err.Error(), "PID 3 listed twice") {
			t.Errorf("%s: got %+v, %v; want the repeated PID refused", form, v, err)
		}
	}
}
