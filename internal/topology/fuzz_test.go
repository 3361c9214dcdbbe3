package topology_test

import (
	"math"
	"testing"

	"p4p/internal/core"
	"p4p/internal/topology"
)

// linkValues are the capacities, weights and distances FuzzTopologyLinks
// draws from: ordinary, huge (whose sums overflow), tiny (whose inverses
// overflow), and those checkLink refuses on their own.
var linkValues = []float64{1e9, 1, 1e308, 5e-324, 1e-308, math.MaxFloat64, 0, -1, math.NaN(), math.Inf(1), 2.5e-308, 1e-300, 0.5, 1e150, 1e149}

// FuzzTopologyLinks builds a graph from data and prices it. The first
// byte picks 2 to 6 nodes, and, in its bit 5 and up, whether the engines
// observe traffic (link i at (i mod 3)/2 of its capacity) before their
// first Update. Every 4 bytes after it are one op: src in bits 0-2 and
// dst in bits 3-5 (mod the node count); bit 6 makes it a SetLink of link
// op mod NumLinks (when there is one), else bit 7 an AddDuplex, else an
// AddLink; then the indexes into linkValues of its capacity, weight and
// distance. A refused op must panic and leave the graph as it was. Every graph that
// is built then has, under both objectives, a first Update and a Matrix
// over every PID that serves 0 on the diagonal, a finite distance >= 0
// for every pair the links connect (a search over them, not the
// routing, says which), and +Inf for every other pair; the MLU prices
// stay on the simplex Σ c_e p_e = 1 (eq. 14).
func FuzzTopologyLinks(f *testing.F) {
	// The three-node chain a-b-c of two duplex links, with capacity
	// 1e308 (the total capacity overflows), capacity 5e-324 (its
	// inverse does), distance 1e308 (a->c's BDP sum does) and weight
	// 1e308 (a->c's route weight does); a duplex link of weight 1e-300
	// with a weight-1 link into it, whose sum absorbs the 1e-300 (routing
	// once looped on it); then plain links.
	f.Add([]byte{1, 0x88, 2, 1, 1, 0x91, 2, 1, 1})
	f.Add([]byte{1, 0x88, 3, 1, 1, 0x91, 3, 1, 1})
	f.Add([]byte{1, 0x88, 0, 1, 2, 0x91, 0, 1, 2})
	f.Add([]byte{1, 0x88, 0, 2, 1, 0x91, 0, 2, 1})
	f.Add([]byte{0x24, 0x88, 0, 11, 12, 0x05, 1, 1, 5})
	f.Add([]byte{0x24, 0x88, 0, 1, 1, 0x91, 4, 12, 0, 0x1a, 10, 0, 11, 0x40, 5, 1, 1, 0x53, 11, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n, observe := 2+int(data[0])%5, data[0]>>5 != 0
		g := topology.NewGraph("fuzz")
		for i := 0; i < n; i++ {
			g.AddNode(topology.Node{})
		}
		for k := 1; k+4 <= len(data); k += 4 {
			op := data[k]
			l := topology.Link{
				Src: topology.PID(int(op&7) % n), Dst: topology.PID(int(op>>3&7) % n),
				CapacityBps: linkValues[int(data[k+1])%len(linkValues)],
				Weight:      linkValues[int(data[k+2])%len(linkValues)],
				DistanceKm:  linkValues[int(data[k+3])%len(linkValues)],
			}
			before := g.Links()
			set, duplex := op&0x40 != 0 && len(before) > 0, op&0x40 == 0 && op&0x80 != 0
			refused := func() (refused bool) {
				defer func() { refused = recover() != nil }()
				switch {
				case set:
					old := before[int(op)%len(before)]
					l.ID, l.Src, l.Dst = old.ID, old.Src, old.Dst
					g.SetLink(l)
				case duplex:
					g.AddDuplex(l.Src, l.Dst, l.CapacityBps, l.Weight, l.DistanceKm)
				default:
					g.AddLink(l)
				}
				return false
			}()
			// AddDuplex adds its two links one by one: the forward one
			// stays when only the reverse is refused.
			if after := g.Links(); refused && !duplex && !sameLinks(before, after) {
				t.Fatalf("op %d: refused %+v changed the links from %v to %v", k, l, before, after)
			}
		}
		reach := reachable(g)
		r := topology.ComputeRouting(g)
		pids := make([]topology.PID, n)
		for i := range pids {
			pids[i] = topology.PID(i)
		}
		for _, obj := range []core.Objective{core.MinimizeMLU, core.MinimizeBDP} {
			e := core.NewEngine(g, r, core.Config{Objective: obj})
			if observe {
				bps := make([]float64, g.NumLinks())
				for i, l := range g.Links() {
					bps[i] = l.CapacityBps / 2 * float64(i%3)
				}
				e.ObserveTraffic(bps)
			}
			e.Update()
			if mass := simplexMass(g, e); obj == core.MinimizeMLU && g.NumLinks() > 0 && !(math.Abs(mass-1) <= 1e-9) {
				t.Fatalf("MLU prices %v have Σ c_e p_e = %v, want 1; links %v", e.Prices(), mass, g.Links())
			}
			for a, row := range e.Matrix(pids).D {
				for b, d := range row {
					switch {
					case a == b && d != 0:
						t.Fatalf("objective %v: p(%d,%d) = %v, want 0; links %v", obj, a, b, d, g.Links())
					case a != b && reach[a][b] && !(d >= 0 && d <= math.MaxFloat64):
						t.Fatalf("objective %v: connected pair (%d,%d) served %v; links %v", obj, a, b, d, g.Links())
					case a != b && !reach[a][b] && !math.IsInf(d, 1):
						t.Fatalf("objective %v: unconnected pair (%d,%d) served %v; links %v", obj, a, b, d, g.Links())
					}
				}
			}
		}
	})
}

// simplexMass is Σ c_e p_e over every link.
func simplexMass(g *topology.Graph, e *core.Engine) float64 {
	mass := 0.0
	for i, p := range e.Prices() {
		mass += g.Link(topology.LinkID(i)).CapacityBps * p
	}
	return mass
}

func sameLinks(a, b []topology.Link) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		// Compared as bits: a NaN field would never equal itself.
		x, y := a[i], b[i]
		if x.Src != y.Src || x.Dst != y.Dst || x.Interdomain != y.Interdomain ||
			math.Float64bits(x.CapacityBps) != math.Float64bits(y.CapacityBps) ||
			math.Float64bits(x.Weight) != math.Float64bits(y.Weight) ||
			math.Float64bits(x.DistanceKm) != math.Float64bits(y.DistanceKm) {
			return false
		}
	}
	return true
}

// reachable[a][b] reports whether a directed path of links leads from a
// to b, by a search from every node.
func reachable(g *topology.Graph) [][]bool {
	n := g.NumNodes()
	reach := make([][]bool, n)
	for src := range reach {
		reach[src] = make([]bool, n)
		reach[src][src] = true
		stack := []topology.PID{topology.PID(src)}
		for len(stack) > 0 {
			at := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, id := range g.OutLinks(at) {
				if dst := g.Link(id).Dst; !reach[src][dst] {
					reach[src][dst] = true
					stack = append(stack, dst)
				}
			}
		}
	}
	return reach
}
