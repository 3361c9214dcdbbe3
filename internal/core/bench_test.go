package core

import (
	"math/rand"
	"testing"

	"p4p/internal/topology"
)

// TestEngineUpdateAllocs pins the price loop's steady state: observing
// and stepping allocates nothing, and a view is four allocations (the
// View, its PID list, its row headers and one n×n backing array) however
// many PIDs it spans.
func TestEngineUpdateAllocs(t *testing.T) {
	for _, g := range []*topology.Graph{topology.ISPB(), topology.AbileneVirtualISPs()} {
		for _, obj := range []Objective{MinimizeMLU, MinimizeBDP} {
			e := NewEngine(g, topology.ComputeRouting(g), Config{Objective: obj})
			for _, id := range g.InterdomainLinks() {
				e.SetVirtualCapacity(id, 1e9)
			}
			loads := randomLoads(rand.New(rand.NewSource(1)), g, make([]float64, g.NumLinks()))
			if a := testing.AllocsPerRun(50, func() { e.ObserveTraffic(loads); e.Update() }); a != 0 {
				t.Errorf("%s %v: ObserveTraffic+Update allocates %v times, want 0", g.Name, obj, a)
			}
			pids := g.AggregationPIDs()
			if a := testing.AllocsPerRun(50, func() { e.Matrix(pids) }); a > 4 {
				t.Errorf("%s %v: Matrix allocates %v times, want <= 4", g.Name, obj, a)
			}
		}
	}
}

var benchSink float64

func benchGraphs() []*topology.Graph { return []*topology.Graph{topology.ISPB(), topology.Abilene()} }

// BenchmarkEngineUpdate is one ObserveTraffic + Update, the provider's
// cost per price step, at the portal workloads' size (ISP-B: 104 links)
// and the simulator's (Abilene: 28), under random loads; Abilene-swarm
// is Abilene at a swarm's loads and step, where the projection's root
// sits near zero.
func BenchmarkEngineUpdate(b *testing.B) {
	abilene := topology.Abilene()
	for _, tc := range []struct {
		name  string
		g     *topology.Graph
		step  float64
		loads func(*rand.Rand, *topology.Graph, []float64) []float64
	}{
		{"ISP-B", topology.ISPB(), 0, randomLoads},
		{"Abilene", abilene, 0, randomLoads},
		{"Abilene-swarm", abilene, 0.3, swarmLoads},
	} {
		b.Run(tc.name, func(b *testing.B) {
			g := tc.g
			e := NewEngine(g, topology.ComputeRouting(g), Config{Objective: MinimizeMLU, StepSize: tc.step})
			rng := rand.New(rand.NewSource(1))
			loads := make([][]float64, 16)
			for k := range loads {
				loads[k] = tc.loads(rng, g, make([]float64, g.NumLinks()))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.ObserveTraffic(loads[i%len(loads)])
				norm, _ := e.Update()
				benchSink += norm
			}
		})
	}
}

// swarmLoads draws a load vector as a 1,000-leecher swarm on Abilene
// makes them (the swarm-p4p workload, step 0.3): idle in half the
// measure intervals, and otherwise a third of the links busy at under
// 2 % of capacity.
func swarmLoads(rng *rand.Rand, g *topology.Graph, out []float64) []float64 {
	idle := rng.Intn(2) == 0
	for i := range out {
		out[i] = 0
		if !idle && rng.Intn(3) == 0 {
			out[i] = 0.02 * rng.Float64() * g.Link(topology.LinkID(i)).CapacityBps
		}
	}
	return out
}

// BenchmarkEngineMatrix is one external-view materialization over every
// aggregation PID (ISP-B: 52×52, Abilene: 11×11).
func BenchmarkEngineMatrix(b *testing.B) {
	for _, g := range benchGraphs() {
		b.Run(g.Name, func(b *testing.B) {
			e := NewEngine(g, topology.ComputeRouting(g), Config{Objective: MinimizeMLU})
			pids := g.AggregationPIDs()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink += e.Matrix(pids).D[0][1]
			}
		})
	}
}
