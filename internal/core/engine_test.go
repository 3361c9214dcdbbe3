package core

import (
	"math"
	"testing"

	"p4p/internal/topology"
)

// fourLine builds a 4-node chain with 1 Gbps links.
func fourLine() (*topology.Graph, *topology.Routing) {
	g := topology.NewGraph("line")
	var pids []topology.PID
	for i := 0; i < 4; i++ {
		pids = append(pids, g.AddNode(topology.Node{Name: string(rune('a' + i)), Kind: topology.Aggregation}))
	}
	for i := 0; i < 3; i++ {
		g.AddDuplex(pids[i], pids[i+1], 1e9, 1, 100)
	}
	return g, topology.ComputeRouting(g)
}

func TestEngineInitialPricesOnSimplex(t *testing.T) {
	g, r := fourLine()
	e := NewEngine(g, r, Config{Objective: MinimizeMLU})
	sum := 0.0
	for i, l := range g.Links() {
		sum += l.CapacityBps * e.Prices()[i]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("initial prices off simplex: Σcp = %v", sum)
	}
}

func TestEnginePricesStayOnSimplexAfterUpdates(t *testing.T) {
	g, r := fourLine()
	e := NewEngine(g, r, Config{Objective: MinimizeMLU, StepSize: 0.2})
	obs := make([]float64, g.NumLinks())
	obs[0] = 0.9e9 // hammer the first link
	for iter := 0; iter < 30; iter++ {
		e.ObserveTraffic(obs)
		e.Update()
		sum := 0.0
		for i, l := range g.Links() {
			p := e.Price(topology.LinkID(i))
			if p < 0 {
				t.Fatalf("negative price at iter %d", iter)
			}
			sum += l.CapacityBps * p
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("prices off simplex at iter %d: %v", iter, sum)
		}
	}
}

func TestEngineRaisesPriceOfCongestedLink(t *testing.T) {
	g, r := fourLine()
	e := NewEngine(g, r, Config{Objective: MinimizeMLU, StepSize: 0.2})
	obs := make([]float64, g.NumLinks())
	obs[0] = 0.9e9
	obs[2] = 0.1e9
	for iter := 0; iter < 50; iter++ {
		e.ObserveTraffic(obs)
		e.Update()
	}
	if e.Price(0) <= e.Price(2) {
		t.Fatalf("congested link price %v not above lighter link %v", e.Price(0), e.Price(2))
	}
	// The idle links' prices must decay relative to the congested one.
	if e.Price(4) >= e.Price(0) {
		t.Fatalf("idle link price %v >= congested %v", e.Price(4), e.Price(0))
	}
}

func TestEngineMLUMetric(t *testing.T) {
	g, r := fourLine()
	e := NewEngine(g, r, Config{})
	bg := make([]float64, g.NumLinks())
	bg[1] = 0.5e9
	e.SetBackground(bg)
	obs := make([]float64, g.NumLinks())
	obs[1] = 0.25e9
	e.ObserveTraffic(obs)
	if got := e.MLU(); math.Abs(got-0.75) > 1e-9 {
		t.Fatalf("MLU = %v, want 0.75", got)
	}
}

func TestEngineBDPDistancesIncludeLinkDistance(t *testing.T) {
	g, r := fourLine()
	e := NewEngine(g, r, Config{Objective: MinimizeBDP})
	// Initial BDP prices are zero, so p_ij = d_ij = 100 km per hop.
	if d := e.PDistance(0, 3); math.Abs(d-300) > 1e-9 {
		t.Fatalf("BDP distance = %v, want 300", d)
	}
	// Uncongested network: prices stay at zero after updates.
	e.ObserveTraffic(make([]float64, g.NumLinks()))
	e.Update()
	if d := e.PDistance(0, 3); math.Abs(d-300) > 1e-9 {
		t.Fatalf("BDP distance after idle update = %v, want 300", d)
	}
	// Overloaded link gains a positive price.
	obs := make([]float64, g.NumLinks())
	obs[0] = 1.5e9
	e.ObserveTraffic(obs)
	e.Update()
	if e.Price(0) <= 0 {
		t.Fatal("overloaded BDP link price should rise above 0")
	}
	if e.Price(2) != 0 {
		t.Fatalf("idle BDP link price = %v, want 0", e.Price(2))
	}
}

func TestEngineIntraPIDDistance(t *testing.T) {
	g, r := fourLine()
	e := NewEngine(g, r, Config{})
	v := e.Matrix(g.AggregationPIDs())
	for a, pid := range v.PIDs {
		if d := e.PDistance(pid, pid); d != 0 || v.D[a][a] != 0 {
			t.Fatalf("intra-PID distance of %d: PDistance %v, view %v; want 0", pid, d, v.D[a][a])
		}
	}
}

func TestEngineUnreachableDistance(t *testing.T) {
	g := topology.NewGraph("oneway")
	a := g.AddNode(topology.Node{Name: "a"})
	b := g.AddNode(topology.Node{Name: "b"})
	g.AddLink(topology.Link{Src: a, Dst: b, CapacityBps: 1e9, Weight: 1})
	r := topology.ComputeRouting(g)
	e := NewEngine(g, r, Config{})
	if !math.IsInf(e.PDistance(b, a), 1) {
		t.Fatal("unreachable distance should be +Inf")
	}
}

func TestEngineInterdomainVirtualCapacityPricing(t *testing.T) {
	g, r := fourLine()
	// Mark link 0 interdomain with a small virtual capacity.
	l := g.Link(0)
	l.Interdomain = true
	g.SetLink(l)
	e := NewEngine(g, r, Config{StepSize: 0.5})
	e.SetVirtualCapacity(0, 0.1e9)
	obs := make([]float64, g.NumLinks())
	obs[0] = 0.5e9 // five times the virtual capacity
	before := e.Price(0)
	for i := 0; i < 5; i++ {
		e.ObserveTraffic(obs)
		e.Update()
	}
	if e.Price(0) <= before {
		t.Fatal("interdomain price should rise when traffic exceeds v_e")
	}
	// Under-capacity traffic drives the price back toward zero.
	obs[0] = 0.01e9
	for i := 0; i < 50; i++ {
		e.ObserveTraffic(obs)
		e.Update()
	}
	if e.Price(0) != 0 {
		t.Fatalf("interdomain price = %v after sustained headroom, want 0", e.Price(0))
	}
}

func TestEngineVersionIncrements(t *testing.T) {
	g, r := fourLine()
	e := NewEngine(g, r, Config{})
	v0 := e.Version()
	e.ObserveTraffic(make([]float64, g.NumLinks()))
	e.Update()
	if e.Version() != v0+1 {
		t.Fatalf("version = %d, want %d", e.Version(), v0+1)
	}
}

func TestEnginePanicsOnBadInput(t *testing.T) {
	g, r := fourLine()
	e := NewEngine(g, r, Config{})
	bad := []func(){
		func() { e.SetBackground([]float64{1}) },
		func() { e.ObserveTraffic([]float64{1}) },
		func() { e.SetVirtualCapacity(0, -1) },
		func() { NewEngine(g, r, Config{StepSize: -1}) },
		// A non-finite step spins the projection under the write lock.
		func() { NewEngine(g, r, Config{StepSize: math.NaN()}) },
		func() { NewEngine(g, r, Config{StepSize: math.Inf(1)}) },
		func() { NewEngine(g, r, Config{StepSize: math.Inf(-1)}) },
	}
	// Accepted, a +Inf virtual capacity made the next step's price NaN
	// ((t − ∞)/∞), a NaN one silently unset it, and a NaN or infinite
	// price or background entry panicked inside the next Update's
	// projection.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bg := make([]float64, g.NumLinks())
		bg[0] = v
		bad = append(bad,
			func() { e.SetPrice(0, v) },
			func() { e.SetVirtualCapacity(0, v) },
			func() { e.SetBackground(bg) })
	}
	for i, fn := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestObjectiveString(t *testing.T) {
	if MinimizeMLU.String() != "min-mlu" || MinimizeBDP.String() != "min-bdp" || Objective(9).String() == "" {
		t.Fatal("Objective strings wrong")
	}
}

func TestEngineSetPriceWarmStart(t *testing.T) {
	g, r := fourLine()
	e := NewEngine(g, r, Config{})
	v0 := e.Version()
	e.SetPrice(1, 2.5)
	if e.Price(1) != 2.5 {
		t.Fatalf("price = %v, want 2.5", e.Price(1))
	}
	if e.Version() == v0 {
		t.Fatal("SetPrice must advance the version so cached views refresh")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative price")
		}
	}()
	e.SetPrice(0, -1)
}

func TestObserveTrafficRejectsNonFinite(t *testing.T) {
	g, r := fourLine()
	e := NewEngine(g, r, Config{StepSize: 0.2})
	obs := make([]float64, g.NumLinks())
	obs[0] = 0.9e9
	e.ObserveTraffic(obs)
	e.Update()
	want, version := e.Prices(), e.Version()
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		poisoned := append([]float64(nil), obs...)
		poisoned[1], poisoned[3] = 0.5e9, bad // a finite change ahead of the bad entry must not land either
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("ObserveTraffic accepted %v", bad)
				}
			}()
			e.ObserveTraffic(poisoned)
		}()
	}
	// Nothing was stored: the next step is the step the clean observation
	// alone would give, and every price and distance stays finite.
	clean := NewEngine(g, r, Config{StepSize: 0.2})
	clean.ObserveTraffic(obs)
	clean.Update()
	clean.Update()
	e.Update()
	if e.Version() != version+1 {
		t.Fatalf("version %d, want %d", e.Version(), version+1)
	}
	for i, p := range e.Prices() {
		if math.IsNaN(p) || math.IsInf(p, 0) || p != clean.Price(topology.LinkID(i)) {
			t.Fatalf("price of link %d = %v after refused observations (was %v), want %v", i, p, want[i], clean.Price(topology.LinkID(i)))
		}
	}
	for _, row := range e.Matrix(g.AggregationPIDs()).D {
		for _, d := range row {
			if math.IsNaN(d) {
				t.Fatal("NaN distance after a refused observation")
			}
		}
	}
}
