package core

import (
	"math"
	"math/rand"
	"testing"

	"p4p/internal/topology"
)

// enginePair is one engine driven through the rebuilt kernels and one
// through the reference ones, fed identical inputs.
type enginePair struct {
	got, ref *Engine
	g        *topology.Graph
	pids     []topology.PID
}

func newEnginePair(g *topology.Graph, cfg Config, pids []topology.PID) *enginePair {
	r := topology.ComputeRouting(g)
	return &enginePair{got: NewEngine(g, r, cfg), ref: NewEngine(g, r, cfg), g: g, pids: pids}
}

// both applies one input to both engines.
func (p *enginePair) both(f func(e *Engine)) { f(p.got); f(p.ref) }

// step feeds one observation to both, takes one price step on each side,
// and compares every price, the returned step norm and MLU (against what
// itracker.ObserveAndUpdate used to compute from outside), the version,
// and then the whole external view and every PDistance, all by bits.
func (p *enginePair) step(t testing.TB, loads []float64) {
	t.Helper()
	p.both(func(e *Engine) { e.ObserveTraffic(loads) })
	before := p.ref.Prices()
	norm, mlu := p.got.Update()
	p.ref.refUpdate()
	want := p.ref.Prices()
	wantNorm := 0.0
	for i, v := range p.got.Prices() {
		if math.Float64bits(v) != math.Float64bits(want[i]) {
			t.Fatalf("price of link %d: got %v (%x), reference %v (%x)", i, v, math.Float64bits(v), want[i], math.Float64bits(want[i]))
		}
		d := want[i] - before[i]
		wantNorm += d * d
	}
	if math.Float64bits(norm) != math.Float64bits(math.Sqrt(wantNorm)) || math.Float64bits(mlu) != math.Float64bits(p.ref.MLU()) {
		t.Fatalf("Update returned (%v, %v), reference (%v, %v)", norm, mlu, math.Sqrt(wantNorm), p.ref.MLU())
	}
	p.compareViews(t)
}

func (p *enginePair) compareViews(t testing.TB) {
	t.Helper()
	got, want := p.got.Matrix(p.pids), p.ref.refMatrix(p.pids)
	if got.Version != want.Version || len(got.D) != len(want.D) {
		t.Fatalf("view version %d with %d rows, reference %d with %d", got.Version, len(got.D), want.Version, len(want.D))
	}
	for a, i := range p.pids {
		if got.PIDs[a] != want.PIDs[a] || len(got.D[a]) != len(want.D[a]) || cap(got.D[a]) != len(got.D[a]) {
			t.Fatalf("row %d: PID %d len %d cap %d, reference PID %d len %d", a, got.PIDs[a], len(got.D[a]), cap(got.D[a]), want.PIDs[a], len(want.D[a]))
		}
		for b, j := range p.pids {
			if math.Float64bits(got.D[a][b]) != math.Float64bits(want.D[a][b]) {
				t.Fatalf("D[%d][%d] (PIDs %d->%d): got %v (%x), reference %v (%x)", a, b, i, j,
					got.D[a][b], math.Float64bits(got.D[a][b]), want.D[a][b], math.Float64bits(want.D[a][b]))
			}
			if pd, ref := p.got.PDistance(i, j), p.ref.refPDistanceLocked(i, j); math.Float64bits(pd) != math.Float64bits(ref) {
				t.Fatalf("PDistance(%d,%d): got %v, reference %v", i, j, pd, ref)
			}
		}
	}
}

// withStub returns g plus one node that every PID can reach and that
// reaches nothing: its row of any view is unreachable off the diagonal.
func withStub(g *topology.Graph) *topology.Graph {
	g = g.Clone()
	stub := g.AddNode(topology.Node{Name: "stub", Kind: topology.Aggregation})
	g.AddLink(topology.Link{Src: 0, Dst: stub, CapacityBps: 2.5e9, Weight: 1, DistanceKm: 40})
	return g
}

// randomLoads draws a load vector that keeps some links idle, most
// busy and a few over capacity, so prices leave and re-enter zero.
func randomLoads(rng *rand.Rand, g *topology.Graph, out []float64) []float64 {
	for i := range out {
		switch c := g.Link(topology.LinkID(i)).CapacityBps; rng.Intn(5) {
		case 0:
			out[i] = 0
		case 1:
			out[i] = c * (1 + rng.Float64())
		default:
			out[i] = c * rng.Float64()
		}
	}
	return out
}

func TestEngineMatchesReference(t *testing.T) {
	abilene, ispb, virt := topology.Abilene(), topology.ISPB(), topology.AbileneVirtualISPs()
	cases := []struct {
		name string
		g    *topology.Graph
		cfg  Config
		pids []topology.PID // nil: every aggregation PID
	}{
		{"abilene-mlu", abilene, Config{Objective: MinimizeMLU, StepSize: 0.3}, nil},
		{"abilene-bdp", abilene, Config{Objective: MinimizeBDP, StepSize: 0.2}, nil},
		{"ispb-mlu", ispb, Config{Objective: MinimizeMLU}, nil},
		{"ispb-bdp-peak-perturbed", ispb, Config{Objective: MinimizeBDP, Background: PeakBackground, PerturbFrac: 0.1, PerturbSeed: 7}, nil},
		{"ispb-mlu-subset-perturbed", ispb, Config{Objective: MinimizeMLU, StepSize: 0.05, PerturbFrac: 0.1}, []topology.PID{40, 3, 17, 3, 51, 0}},
		{"virtual-mlu-peak-perturbed", virt, Config{Objective: MinimizeMLU, StepSize: 0.5, Background: PeakBackground, PerturbFrac: 0.25, PerturbSeed: 3}, nil},
		{"virtual-bdp", virt, Config{Objective: MinimizeBDP, StepSize: 0.5}, nil},
		{"stub-mlu-perturbed", withStub(virt), Config{Objective: MinimizeMLU, PerturbFrac: 0.05, PerturbSeed: 11}, nil},
		{"stub-bdp", withStub(abilene), Config{Objective: MinimizeBDP}, nil},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + ci)))
			pids := tc.pids
			if pids == nil {
				pids = tc.g.AggregationPIDs()
			}
			p := newEnginePair(tc.g, tc.cfg, pids)
			n := tc.g.NumLinks()
			bg, peak := make([]float64, n), make([]float64, n)
			for i := range bg {
				c := tc.g.Link(topology.LinkID(i)).CapacityBps
				bg[i], peak[i] = 0.3*c*rng.Float64(), 0.8*c*rng.Float64()
			}
			p.both(func(e *Engine) { e.SetBackground(bg); e.SetPeakBackground(peak) })
			// Interdomain links in turn get a virtual capacity, a zero one
			// (the step then scales by c_e) and none (they stay in the
			// simplex or on the BDP rule).
			for k, id := range tc.g.InterdomainLinks() {
				switch k % 3 {
				case 0:
					p.both(func(e *Engine) { e.SetVirtualCapacity(id, 0.4*tc.g.Link(id).CapacityBps) })
				case 1:
					p.both(func(e *Engine) { e.SetVirtualCapacity(id, 0) })
				}
			}
			p.compareViews(t) // initial prices
			loads := make([]float64, n)
			for step := 0; step < 220; step++ {
				if step%37 == 5 {
					// A warm start, as from billing history.
					id, price := topology.LinkID(rng.Intn(n)), rng.Float64()*1e-9
					p.both(func(e *Engine) { e.SetPrice(id, price) })
				}
				p.step(t, randomLoads(rng, tc.g, loads))
			}
		})
	}
}

// FuzzEngineMatchesReference runs the same comparison on random small
// graphs — random duplex and one-way links (so some PIDs are
// unreachable), random capacities over four decades, some links
// interdomain with and without virtual capacities — under loads drawn
// from the fuzzer's seed.
func FuzzEngineMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(0), false)
	f.Add(int64(2), uint8(9), uint8(7), true)
	f.Add(int64(3), uint8(2), uint8(200), true)
	f.Add(int64(-77), uint8(12), uint8(31), false)
	f.Fuzz(func(t *testing.T, seed int64, nodes, flags uint8, bdp bool) {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nodes)%11
		g := topology.NewGraph("fuzz")
		for i := 0; i < n; i++ {
			g.AddNode(topology.Node{Kind: topology.Aggregation})
		}
		link := func(a, b int) {
			if a == b {
				return
			}
			l := topology.Link{Src: topology.PID(a), Dst: topology.PID(b),
				CapacityBps: math.Pow(10, 6+4*rng.Float64()), Weight: float64(1 + rng.Intn(3)),
				DistanceKm: 1000 * rng.Float64(), Interdomain: rng.Intn(4) == 0}
			g.AddLink(l)
			if rng.Intn(5) > 0 { // mostly duplex
				l.Src, l.Dst = l.Dst, l.Src
				g.AddLink(l)
			}
		}
		for i := 1; i < n; i++ {
			link(rng.Intn(i), i)
		}
		for extra := rng.Intn(n); extra > 0; extra-- {
			link(rng.Intn(n), rng.Intn(n))
		}
		cfg := Config{StepSize: 0.01 + rng.Float64(), PerturbSeed: seed}
		if bdp {
			cfg.Objective = MinimizeBDP
		}
		if flags&1 != 0 {
			cfg.Background = PeakBackground
		}
		if flags&2 != 0 {
			cfg.PerturbFrac = 0.2
		}
		pids := g.AggregationPIDs()
		if flags&4 != 0 { // a repeated PID: p_ii off the view's diagonal
			pids = append(pids, pids[rng.Intn(len(pids))])
		}
		p := newEnginePair(g, cfg, pids)
		m := g.NumLinks()
		bg := randomLoads(rng, g, make([]float64, m))
		p.both(func(e *Engine) { e.SetBackground(bg); e.SetPeakBackground(bg) })
		for _, id := range g.InterdomainLinks() {
			if v := rng.Intn(3); v < 2 {
				bps := float64(v) * rng.Float64() * g.Link(id).CapacityBps // v == 0: a zero virtual capacity
				p.both(func(e *Engine) { e.SetVirtualCapacity(id, bps) })
			}
		}
		loads := make([]float64, m)
		for step := 0; step < 12; step++ {
			p.step(t, randomLoads(rng, g, loads))
		}
	})
}
