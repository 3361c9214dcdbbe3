package topology

import (
	"fmt"
	"math"
	"testing"
)

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestAddNodeAssignsDenseIDs(t *testing.T) {
	g := NewGraph("t")
	for i := 0; i < 5; i++ {
		id := g.AddNode(Node{Name: "n"})
		if id != PID(i) {
			t.Fatalf("node %d got PID %d", i, id)
		}
	}
	if g.NumNodes() != 5 {
		t.Fatalf("NumNodes = %d, want 5", g.NumNodes())
	}
}

func TestAddLinkValidation(t *testing.T) {
	g := NewGraph("t")
	a := g.AddNode(Node{Name: "a"})
	b := g.AddNode(Node{Name: "b"})
	mustPanic(t, "out of range", func() {
		g.AddLink(Link{Src: a, Dst: 99, CapacityBps: 1, Weight: 1})
	})
	mustPanic(t, "self loop", func() {
		g.AddLink(Link{Src: a, Dst: a, CapacityBps: 1, Weight: 1})
	})
	mustPanic(t, "zero capacity", func() {
		g.AddLink(Link{Src: a, Dst: b, CapacityBps: 0, Weight: 1})
	})
	mustPanic(t, "zero weight", func() {
		g.AddLink(Link{Src: a, Dst: b, CapacityBps: 1, Weight: 0})
	})
	// NaN passed the old <= 0 checks: a NaN or +Inf capacity panicked in
	// the first price update, and a NaN weight left the pair unreachable.
	for _, bad := range []Link{
		{CapacityBps: math.NaN(), Weight: 1},
		{CapacityBps: math.Inf(1), Weight: 1},
		{CapacityBps: 1, Weight: math.NaN()},
		{CapacityBps: 1, Weight: math.Inf(1)},
		{CapacityBps: 1, Weight: 1, DistanceKm: -1},
		{CapacityBps: 1, Weight: 1, DistanceKm: math.NaN()},
		{CapacityBps: 1, Weight: 1, DistanceKm: math.Inf(1)},
		// Below 1 bit/s the MLU start price 1/Σc or its ratio to c overflows.
		{CapacityBps: 5e-324, Weight: 1},
		{CapacityBps: 0.5, Weight: 1},
		{CapacityBps: 2 * maxTotalCapacityBps, Weight: 1},
	} {
		bad.Src, bad.Dst = a, b
		mustPanic(t, fmt.Sprintf("%+v", bad), func() { g.AddLink(bad) })
	}
	if g.NumLinks() != 0 {
		t.Fatalf("refused links were added: %d links", g.NumLinks())
	}
	id := g.AddLink(Link{Src: a, Dst: b, CapacityBps: 1, Weight: 1})
	if id != 0 {
		t.Fatalf("first link ID = %d, want 0", id)
	}
}

// TestLinkTotalsRefused pins the graph-wide sums: each value below is
// accepted on one link, and the second link that takes the graph's total
// capacity past maxTotalCapacityBps, or its total weight or distance past
// MaxFloat64, is refused, by AddLink and by SetLink alike.
func TestLinkTotalsRefused(t *testing.T) {
	for _, big := range []Link{
		{CapacityBps: maxTotalCapacityBps, Weight: 1},
		{CapacityBps: 1, Weight: 1e308},
		{CapacityBps: 1, Weight: 1, DistanceKm: 1e308},
	} {
		g := NewGraph("t")
		a, b, c := g.AddNode(Node{}), g.AddNode(Node{}), g.AddNode(Node{})
		big.Src, big.Dst = a, b
		g.AddLink(big)
		id := g.AddLink(Link{Src: b, Dst: c, CapacityBps: 1, Weight: 1})
		second := big
		second.Src, second.Dst = b, c
		mustPanic(t, fmt.Sprintf("AddLink(%+v) after %+v", second, big), func() { g.AddLink(second) })
		second.ID = id
		mustPanic(t, fmt.Sprintf("SetLink(%+v) after %+v", second, big), func() { g.SetLink(second) })
		big.ID = 0
		g.SetLink(big) // replacing a link does not count it twice
	}
}

func TestDuplexAdjacency(t *testing.T) {
	g := NewGraph("t")
	a := g.AddNode(Node{Name: "a"})
	b := g.AddNode(Node{Name: "b"})
	f, r := g.AddDuplex(a, b, 100, 2, 3)
	if g.Link(f).Src != a || g.Link(f).Dst != b {
		t.Fatalf("forward link endpoints wrong: %+v", g.Link(f))
	}
	if g.Link(r).Src != b || g.Link(r).Dst != a {
		t.Fatalf("reverse link endpoints wrong: %+v", g.Link(r))
	}
	if len(g.OutLinks(a)) != 1 || g.OutLinks(a)[0] != f {
		t.Fatalf("OutLinks(a) = %v", g.OutLinks(a))
	}
	if len(g.InLinks(a)) != 1 || g.InLinks(a)[0] != r {
		t.Fatalf("InLinks(a) = %v", g.InLinks(a))
	}
}

func TestSetLinkPreservesEndpoints(t *testing.T) {
	g := NewGraph("t")
	a := g.AddNode(Node{Name: "a"})
	b := g.AddNode(Node{Name: "b"})
	c := g.AddNode(Node{Name: "c"})
	id := g.AddLink(Link{Src: a, Dst: b, CapacityBps: 1, Weight: 1})
	l := g.Link(id)
	l.Interdomain = true
	g.SetLink(l)
	if !g.Link(id).Interdomain {
		t.Fatal("SetLink did not persist Interdomain flag")
	}
	l.Dst = c
	mustPanic(t, "endpoint change", func() { g.SetLink(l) })
	// SetLink checks what AddLink checks, and keeps the old link.
	for _, set := range []func(*Link){
		func(l *Link) { l.CapacityBps = math.NaN() },
		func(l *Link) { l.CapacityBps = math.Inf(1) },
		func(l *Link) { l.CapacityBps = 0 },
		func(l *Link) { l.Weight = math.NaN() },
		func(l *Link) { l.Weight = -1 },
		func(l *Link) { l.DistanceKm = math.Inf(-1) },
	} {
		bad := g.Link(id)
		set(&bad)
		mustPanic(t, fmt.Sprintf("SetLink(%+v)", bad), func() { g.SetLink(bad) })
	}
	if got := g.Link(id); got.CapacityBps != 1 || got.Weight != 1 || got.DistanceKm != 0 || !got.Interdomain {
		t.Fatalf("refused SetLink changed the link: %+v", got)
	}
}

func TestFindNodeAndLink(t *testing.T) {
	g := NewGraph("t")
	a := g.AddNode(Node{Name: "alpha"})
	b := g.AddNode(Node{Name: "beta"})
	g.AddDuplex(a, b, 1, 1, 1)
	if pid, ok := g.FindNode("beta"); !ok || pid != b {
		t.Fatalf("FindNode(beta) = %d, %v", pid, ok)
	}
	if _, ok := g.FindNode("gamma"); ok {
		t.Fatal("FindNode(gamma) should fail")
	}
	if id, ok := g.FindLink(a, b); !ok || g.Link(id).Dst != b {
		t.Fatalf("FindLink(a,b) = %d, %v", id, ok)
	}
	if _, ok := g.FindLink(b, PID(0)); !ok {
		t.Fatal("FindLink(b,a) should succeed")
	}
}

func TestValidateDisconnected(t *testing.T) {
	g := NewGraph("t")
	g.AddNode(Node{Name: "a"})
	g.AddNode(Node{Name: "b"})
	if err := g.Validate(); err == nil {
		t.Fatal("expected disconnected graph to fail validation")
	}
}

func TestValidateEmpty(t *testing.T) {
	g := NewGraph("t")
	if err := g.Validate(); err == nil {
		t.Fatal("expected empty graph to fail validation")
	}
}

func TestAggregationPIDsFiltersKinds(t *testing.T) {
	g := NewGraph("t")
	a := g.AddNode(Node{Name: "a", Kind: Aggregation})
	g.AddNode(Node{Name: "r", Kind: Core})
	b := g.AddNode(Node{Name: "b", Kind: Aggregation})
	g.AddNode(Node{Name: "x", Kind: External})
	got := g.AggregationPIDs()
	if len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("AggregationPIDs = %v", got)
	}
}

func TestMetros(t *testing.T) {
	g := NewGraph("t")
	g.AddNode(Node{Name: "a", Metro: "nyc"})
	g.AddNode(Node{Name: "b", Metro: "chi"})
	g.AddNode(Node{Name: "c", Metro: "nyc"})
	g.AddNode(Node{Name: "d"})
	got := g.Metros()
	if len(got) != 2 || got[0] != "chi" || got[1] != "nyc" {
		t.Fatalf("Metros = %v", got)
	}
	if g.MetroOf(0) != "nyc" || g.MetroOf(3) != "" {
		t.Fatal("MetroOf wrong")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := Abilene()
	c := g.Clone()
	l := c.Link(0)
	l.Interdomain = true
	c.SetLink(l)
	if g.Link(0).Interdomain {
		t.Fatal("mutating clone affected original")
	}
	if c.NumNodes() != g.NumNodes() || c.NumLinks() != g.NumLinks() {
		t.Fatal("clone dimensions differ")
	}
}

func TestNodeKindString(t *testing.T) {
	cases := map[NodeKind]string{Aggregation: "aggregation", Core: "core", External: "external", NodeKind(9): "NodeKind(9)"}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("NodeKind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
}
