package portal

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"p4p/internal/core"
	"p4p/internal/itracker"
	"p4p/internal/topology"
)

func newTestPortal(t *testing.T, cfg itracker.Config) (*httptest.Server, *itracker.Server) {
	t.Helper()
	g := topology.Abilene()
	r := topology.ComputeRouting(g)
	e := core.NewEngine(g, r, core.Config{})
	tr := itracker.New(cfg, e, itracker.SyntheticPIDMap(g))
	srv := httptest.NewServer(NewHandler(tr))
	t.Cleanup(srv.Close)
	return srv, tr
}

func TestWireRoundTrip(t *testing.T) {
	v := &core.View{
		PIDs: []topology.PID{0, 1, 2},
		D: [][]float64{
			{0, 1.5, math.Inf(1)},
			{1.5, 0, 2},
			{math.Inf(1), 2, 0},
		},
		Version: 7,
	}
	got, err := FromWire(ToWire(v))
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 7 {
		t.Fatal("version lost")
	}
	for i := range v.D {
		for j := range v.D[i] {
			a, b := v.D[i][j], got.D[i][j]
			if math.IsInf(a, 1) != math.IsInf(b, 1) || (!math.IsInf(a, 1) && a != b) {
				t.Fatalf("round trip mismatch at (%d,%d): %v vs %v", i, j, a, b)
			}
		}
	}
}

func TestFromWireValidation(t *testing.T) {
	bad := []*ViewWire{
		{PIDs: []topology.PID{0, 1}, Matrix: [][]float64{{0, 1}}},
		{PIDs: []topology.PID{0}, Matrix: [][]float64{{0, 1}}},
		{PIDs: []topology.PID{0}, Matrix: [][]float64{{math.NaN()}}},
		{PIDs: []topology.PID{0}, Matrix: [][]float64{{math.Inf(1)}}},
		{PIDs: []topology.PID{0}, Matrix: [][]float64{{math.Inf(-1)}}},
		{PIDs: []topology.PID{0}, Matrix: [][]float64{{MaxDistance * 2}}},
	}
	for i, w := range bad {
		if _, err := FromWire(w); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// TestFromWireTolerantSentinel checks that every negative distance —
// not only the exact -1 the encoder emits — decodes as unreachable, so
// a perturbed sentinel can never read as a very cheap path.
func TestFromWireTolerantSentinel(t *testing.T) {
	for _, d := range []float64{Unreachable, -1.0000001, -0.5, -5, -1e300} {
		w := &ViewWire{PIDs: []topology.PID{0, 1}, Matrix: [][]float64{{0, d}, {1, 0}}}
		v, err := FromWire(w)
		if err != nil {
			t.Fatalf("d=%v: %v", d, err)
		}
		if !math.IsInf(v.D[0][1], 1) {
			t.Errorf("d=%v decoded as %v, want +Inf", d, v.D[0][1])
		}
	}
}

func TestPolicyEndpoint(t *testing.T) {
	pol := itracker.Policy{NearCongestionUtil: 0.7}
	srv, _ := newTestPortal(t, itracker.Config{Name: "t", ASN: 1, Policy: pol})
	c := NewClient(srv.URL, "")
	var got itracker.Policy
	err := c.doJSON(context.Background(), http.MethodGet, "/p4p/v1/policy", nil, nil, &got)
	if err != nil {
		t.Fatal(err)
	}
	if got.NearCongestionUtil != 0.7 {
		t.Fatalf("policy = %+v", got)
	}
}

func TestDistancesEndpoint(t *testing.T) {
	srv, _ := newTestPortal(t, itracker.Config{Name: "t", ASN: 1})
	c := NewClient(srv.URL, "")
	v, err := c.DistancesContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(v.PIDs) != 11 {
		t.Fatalf("view has %d PIDs, want 11", len(v.PIDs))
	}
}

// TestClientTrailingSlashBase: a base URL ending in "/" costs one
// request per call, as one without does. A doubled slash in the path
// would draw the mux's 301, a second round trip for every view, and a
// batch POST re-sent as a GET without its body.
func TestClientTrailingSlashBase(t *testing.T) {
	srv, _ := newTestPortal(t, itracker.Config{Name: "t", ASN: 1})
	var paths []string
	c := NewClient(srv.URL+"/", "")
	c.HTTPClient = &http.Client{Transport: roundTripperFunc(func(r *http.Request) (*http.Response, error) {
		paths = append(paths, r.Method+" "+r.URL.Path)
		return http.DefaultTransport.RoundTrip(r)
	})}
	v, err := c.DistancesContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if again, err := c.DistancesContext(context.Background()); err != nil || again != v {
		t.Errorf("revalidation returned %p, %v; want the held %p", again, err, v)
	}
	if _, err := postBatch(c, []PIDPair{{Src: 0, Dst: 1}}); err != nil {
		t.Errorf("batch: %v", err)
	}
	if _, err := c.LookupPIDContext(context.Background(), itracker.SyntheticIP(5, 1)); err != nil {
		t.Errorf("lookup: %v", err)
	}
	want := []string{"GET /p4p/v1/distances", "GET /p4p/v1/distances", "POST /p4p/v1/distances/batch", "GET /p4p/v1/pid"}
	if fmt.Sprint(paths) != fmt.Sprint(want) {
		t.Errorf("requests %q, want %q", paths, want)
	}
}

func TestDistancesAuth(t *testing.T) {
	srv, _ := newTestPortal(t, itracker.Config{Name: "t", ASN: 1, TrustedTokens: []string{"s3cr3t"}})
	denied := NewClient(srv.URL, "nope")
	if _, err := denied.DistancesContext(context.Background()); err == nil || !strings.Contains(err.Error(), "403") && !strings.Contains(err.Error(), "denied") {
		t.Fatalf("expected denial, got %v", err)
	}
	allowed := NewClient(srv.URL, "s3cr3t")
	if _, err := allowed.DistancesContext(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestCapabilitiesEndpoint(t *testing.T) {
	caps := []itracker.Capability{
		{Kind: "cache", PID: 3, CapacityBps: 1e9},
		{Kind: "on-demand-server", PID: 4, CapacityBps: 2e9, Restricted: true},
	}
	srv, _ := newTestPortal(t, itracker.Config{Name: "t", ASN: 1, TrustedTokens: []string{"tok"}, Capabilities: caps})
	pub := NewClient(srv.URL, "")
	var got []itracker.Capability
	err := pub.doJSON(context.Background(), http.MethodGet, "/p4p/v1/capabilities", nil, nil, &got)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Kind != "cache" {
		t.Fatalf("public caps = %+v", got)
	}
	trusted := NewClient(srv.URL, "tok")
	got = nil
	err = trusted.doJSON(context.Background(), http.MethodGet, "/p4p/v1/capabilities", url.Values{"kind": {"on-demand-server"}}, nil, &got)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].PID != 4 {
		t.Fatalf("trusted caps = %+v", got)
	}
}

func TestPIDEndpoint(t *testing.T) {
	srv, _ := newTestPortal(t, itracker.Config{Name: "t", ASN: 9})
	c := NewClient(srv.URL, "")
	got, err := c.LookupPIDContext(context.Background(), itracker.SyntheticIP(5, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got.PID != 5 || got.ASN != 9 {
		t.Fatalf("lookup = %+v", got)
	}
	if _, err := c.LookupPIDContext(context.Background(), net.ParseIP("8.8.8.8")); err == nil {
		t.Fatal("foreign IP should 404")
	}
}

func TestBadForm(t *testing.T) {
	srv, _ := newTestPortal(t, itracker.Config{Name: "t", ASN: 1})
	c := NewClient(srv.URL, "")
	var w ViewWire
	err := c.doJSON(context.Background(), http.MethodGet, "/p4p/v1/distances", map[string][]string{"form": {"bogus"}}, nil, &w)
	if err == nil {
		t.Fatal("expected error for unknown form")
	}
	if !strings.Contains(err.Error(), "400") {
		t.Fatalf("unknown form should be HTTP 400, got %v", err)
	}
}

func TestViewRefreshAfterUpdate(t *testing.T) {
	srv, tr := newTestPortal(t, itracker.Config{Name: "t", ASN: 1})
	c := NewClient(srv.URL, "")
	v1, err := c.DistancesContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	loads := make([]float64, tr.Engine().Graph().NumLinks())
	loads[0] = 5e9
	tr.ObserveAndUpdate(loads)
	v2, err := c.DistancesContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v2.Version == v1.Version {
		t.Fatal("version did not advance after update")
	}
}
