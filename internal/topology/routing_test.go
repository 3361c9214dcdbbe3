package topology

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

// line builds a 4-node path a-b-c-d with unit weights.
func line() *Graph {
	g := NewGraph("line")
	a := g.AddNode(Node{Name: "a"})
	b := g.AddNode(Node{Name: "b"})
	c := g.AddNode(Node{Name: "c"})
	d := g.AddNode(Node{Name: "d"})
	g.AddDuplex(a, b, 1e9, 1, 10)
	g.AddDuplex(b, c, 1e9, 1, 10)
	g.AddDuplex(c, d, 1e9, 1, 10)
	return g
}

func TestRoutingLine(t *testing.T) {
	g := line()
	r := ComputeRouting(g)
	if hc := r.HopCount(0, 3); hc != 3 {
		t.Fatalf("HopCount(0,3) = %d, want 3", hc)
	}
	if hc := r.HopCount(2, 2); hc != 0 {
		t.Fatalf("HopCount(2,2) = %d, want 0", hc)
	}
	if d := r.DistanceKm(0, 3); d != 30 {
		t.Fatalf("DistanceKm(0,3) = %v, want 30", d)
	}
	if w := r.WeightSum(0, 3); w != 3 {
		t.Fatalf("WeightSum(0,3) = %v, want 3", w)
	}
	if !r.Reachable(0, 3) || !r.Reachable(1, 1) {
		t.Fatal("Reachable wrong")
	}
	delay := r.PropagationDelaySeconds(0, 3)
	if math.Abs(delay-30*5e-6) > 1e-12 {
		t.Fatalf("PropagationDelaySeconds = %v", delay)
	}
}

func TestRoutingPicksShorterPath(t *testing.T) {
	// Triangle where the direct edge a-c is heavier than the detour a-b-c.
	g := NewGraph("tri")
	a := g.AddNode(Node{Name: "a"})
	b := g.AddNode(Node{Name: "b"})
	c := g.AddNode(Node{Name: "c"})
	g.AddDuplex(a, b, 1e9, 1, 1)
	g.AddDuplex(b, c, 1e9, 1, 1)
	g.AddDuplex(a, c, 1e9, 5, 5)
	r := ComputeRouting(g)
	if hc := r.HopCount(a, c); hc != 2 {
		t.Fatalf("HopCount(a,c) = %d, want 2 (detour)", hc)
	}
	path := r.Path(a, c)
	if g.Link(path[0]).Dst != b {
		t.Fatalf("path does not pass through b: %v", path)
	}
}

func TestRoutingUnreachable(t *testing.T) {
	// Directed-only edge: b cannot reach a.
	g := NewGraph("oneway")
	a := g.AddNode(Node{Name: "a"})
	b := g.AddNode(Node{Name: "b"})
	g.AddLink(Link{Src: a, Dst: b, CapacityBps: 1, Weight: 1})
	r := ComputeRouting(g)
	if r.Reachable(b, a) {
		t.Fatal("b should not reach a")
	}
	if hc := r.HopCount(b, a); hc != -1 {
		t.Fatalf("HopCount(b,a) = %d, want -1", hc)
	}
	if !math.IsInf(r.DistanceKm(b, a), 1) {
		t.Fatal("DistanceKm(b,a) should be +Inf")
	}
	if !math.IsInf(r.PropagationDelaySeconds(b, a), 1) {
		t.Fatal("PropagationDelaySeconds(b,a) should be +Inf")
	}
}

func TestOnPathMatchesPath(t *testing.T) {
	g := Abilene()
	r := ComputeRouting(g)
	n := g.NumNodes()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			onPath := map[LinkID]bool{}
			for _, e := range r.Path(PID(i), PID(j)) {
				onPath[e] = true
			}
			for e := 0; e < g.NumLinks(); e++ {
				if got := r.OnPath(LinkID(e), PID(i), PID(j)); got != onPath[LinkID(e)] {
					t.Fatalf("OnPath(%d,%d,%d) = %v, want %v", e, i, j, got, onPath[LinkID(e)])
				}
			}
		}
	}
}

// TestPathsAreContiguous is a property test: on every built-in topology,
// every path's links chain src->...->dst and its length equals HopCount.
func TestPathsAreContiguous(t *testing.T) {
	for _, g := range []*Graph{Abilene(), ISPA(), ISPB(), ISPC()} {
		r := ComputeRouting(g)
		n := g.NumNodes()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				path := r.Path(PID(i), PID(j))
				if path == nil {
					t.Fatalf("%s: no path %d->%d", g.Name, i, j)
				}
				at := PID(i)
				for _, e := range path {
					l := g.Link(e)
					if l.Src != at {
						t.Fatalf("%s: discontiguous path %d->%d at link %d", g.Name, i, j, e)
					}
					at = l.Dst
				}
				if at != PID(j) {
					t.Fatalf("%s: path %d->%d ends at %d", g.Name, i, j, at)
				}
				if len(path) != r.HopCount(PID(i), PID(j)) {
					t.Fatalf("%s: HopCount mismatch for %d->%d", g.Name, i, j)
				}
			}
		}
	}
}

// TestTreeRebuildsEveryPath: walking Tree(src) and extending the parent's
// path by the hop's link reproduces Path(src, node) exactly, for every
// reachable node and no other — the prefix property core.Engine.Matrix
// accumulates path sums on. The one-way graph has an unreachable node.
func TestTreeRebuildsEveryPath(t *testing.T) {
	oneway := NewGraph("oneway")
	a, b := oneway.AddNode(Node{Name: "a"}), oneway.AddNode(Node{Name: "b"})
	oneway.AddLink(Link{Src: a, Dst: b, CapacityBps: 1, Weight: 1})
	for _, g := range []*Graph{Abilene(), AbileneVirtualISPs(), ISPA(), ISPB(), ISPC(), oneway} {
		r := ComputeRouting(g)
		n := g.NumNodes()
		for src := 0; src < n; src++ {
			built := make([][]LinkID, n)
			seen := map[PID]bool{PID(src): true}
			for _, h := range r.Tree(PID(src)) {
				if !seen[h.Parent] || seen[h.Node] {
					t.Fatalf("%s: tree of %d visits %d before its parent %d, or twice", g.Name, src, h.Node, h.Parent)
				}
				seen[h.Node] = true
				built[h.Node] = append(append([]LinkID(nil), built[h.Parent]...), h.Link)
			}
			for dst := 0; dst < n; dst++ {
				if !reflect.DeepEqual(built[dst], r.Path(PID(src), PID(dst))) {
					t.Fatalf("%s: tree path %d->%d = %v, Path = %v", g.Name, src, dst, built[dst], r.Path(PID(src), PID(dst)))
				}
			}
		}
	}
}

// TestRoutingSymmetricOnDuplex: weights are symmetric on duplex
// topologies, so shortest-path weights must be symmetric too.
func TestRoutingSymmetricOnDuplex(t *testing.T) {
	g := Abilene()
	r := ComputeRouting(g)
	n := g.NumNodes()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			wf, wb := r.WeightSum(PID(i), PID(j)), r.WeightSum(PID(j), PID(i))
			if math.Abs(wf-wb) > 1e-9 {
				t.Fatalf("asymmetric weights %d<->%d: %v vs %v", i, j, wf, wb)
			}
		}
	}
}

// TestRoutingDeterministic: recomputation must yield identical paths.
func TestRoutingDeterministic(t *testing.T) {
	g := ISPA()
	r1 := ComputeRouting(g)
	r2 := ComputeRouting(g)
	n := g.NumNodes()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			p1, p2 := r1.Path(PID(i), PID(j)), r2.Path(PID(i), PID(j))
			if len(p1) != len(p2) {
				t.Fatalf("nondeterministic path %d->%d", i, j)
			}
			for k := range p1 {
				if p1[k] != p2[k] {
					t.Fatalf("nondeterministic path %d->%d", i, j)
				}
			}
		}
	}
}

// TestGreatCircleProperties uses testing/quick: distance is symmetric,
// non-negative, zero for identical points, and bounded by half the
// Earth's circumference.
func TestGreatCircleProperties(t *testing.T) {
	clamp := func(v, lo, hi float64) float64 {
		return lo + math.Mod(math.Abs(v), hi-lo)
	}
	prop := func(lat1, lon1, lat2, lon2 float64) bool {
		la1, lo1 := clamp(lat1, -90, 90), clamp(lon1, -180, 180)
		la2, lo2 := clamp(lat2, -90, 90), clamp(lon2, -180, 180)
		d12 := GreatCircleKm(la1, lo1, la2, lo2)
		d21 := GreatCircleKm(la2, lo2, la1, lo1)
		if d12 < 0 || math.Abs(d12-d21) > 1e-6 {
			return false
		}
		if d12 > math.Pi*earthRadiusKm+1e-6 {
			return false
		}
		return GreatCircleKm(la1, lo1, la1, lo1) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestGreatCircleKnownDistance(t *testing.T) {
	// New York to Los Angeles is roughly 3940 km.
	d := GreatCircleKm(40.71, -74.01, 34.05, -118.24)
	if d < 3800 || d > 4100 {
		t.Fatalf("NY-LA distance = %v km, want ~3940", d)
	}
}
