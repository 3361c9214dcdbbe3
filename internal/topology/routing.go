package topology

import (
	"container/heap"
	"math"
)

// Routing holds all-pairs shortest paths over a graph, computed with
// Dijkstra's algorithm on the link weights (an OSPF-style interior
// gateway protocol). It answers the paper's I_e(i,j) indicator — whether
// link e lies on the route from PID i to PID j — as well as path link
// lists, hop counts and distance sums.
type Routing struct {
	g *Graph
	// pathLinks[i][j] holds the link IDs along the route i->j in order;
	// nil when i == j or j is unreachable from i.
	pathLinks [][][]LinkID
	// dist[i][j] is the total routing weight of the path, +Inf if
	// unreachable, 0 when i == j.
	dist [][]float64
	// tree[i] is i's shortest-path tree, parents before children.
	tree [][]Hop
}

// Hop is one edge of a source's shortest-path tree: the route to Node is
// the route to Parent followed by Link.
type Hop struct {
	Node, Parent PID
	Link         LinkID
}

// ComputeRouting runs Dijkstra from every node and materializes all-pairs
// paths. Ties are broken deterministically by predecessor link ID so that
// repeated runs yield identical routing.
func ComputeRouting(g *Graph) *Routing {
	n := g.NumNodes()
	r := &Routing{
		g:         g,
		pathLinks: make([][][]LinkID, n),
		dist:      make([][]float64, n),
		tree:      make([][]Hop, n),
	}
	for src := 0; src < n; src++ {
		dist, prev := dijkstra(g, PID(src))
		r.dist[src] = dist
		r.pathLinks[src] = make([][]LinkID, n)
		for dst := 0; dst < n; dst++ {
			if dst == src || math.IsInf(dist[dst], 1) {
				continue
			}
			// Walk predecessors backwards, then reverse.
			var rev []LinkID
			at := PID(dst)
			for at != PID(src) {
				e := prev[at]
				rev = append(rev, e)
				at = g.Link(e).Src
			}
			path := make([]LinkID, len(rev))
			for i := range rev {
				path[len(rev)-1-i] = rev[i]
			}
			r.pathLinks[src][dst] = path
		}
		// Every path above walks the same predecessor array, so the path
		// to a node at depth d is the path to its parent at depth d-1
		// plus one link: emitting by depth puts parents first, and the
		// first empty depth ends the tree.
		r.tree[src] = make([]Hop, 0, n-1)
		for depth, found := 1, true; found; depth++ {
			found = false
			for dst, path := range r.pathLinks[src] {
				if len(path) == depth {
					last := path[depth-1]
					r.tree[src] = append(r.tree[src], Hop{Node: PID(dst), Parent: g.Link(last).Src, Link: last})
					found = true
				}
			}
		}
	}
	return r
}

// Graph returns the graph this routing was computed over.
func (r *Routing) Graph() *Graph { return r.g }

// Path returns the link IDs along the route from i to j, in order. It is
// nil when i == j or j is unreachable. The returned slice must not be
// modified.
func (r *Routing) Path(i, j PID) []LinkID { return r.pathLinks[i][j] }

// Tree returns src's shortest-path tree: one Hop per node reachable from
// src (src itself excluded), every node after its parent, with
// Path(src, h.Node) == Path(src, h.Parent) followed by h.Link. A quantity
// summed link by link along routes can therefore be accumulated down the
// tree, one addition per node, in the same order as a walk of each Path.
// The returned slice must not be modified.
func (r *Routing) Tree(src PID) []Hop { return r.tree[src] }

// Reachable reports whether j is reachable from i.
func (r *Routing) Reachable(i, j PID) bool {
	return i == j || r.pathLinks[i][j] != nil
}

// OnPath reports the indicator I_e(i,j): whether link e is on the route
// from i to j.
func (r *Routing) OnPath(e LinkID, i, j PID) bool {
	for _, id := range r.pathLinks[i][j] {
		if id == e {
			return true
		}
	}
	return false
}

// HopCount returns the number of links on the route from i to j
// (0 when i == j, -1 if unreachable).
func (r *Routing) HopCount(i, j PID) int {
	if i == j {
		return 0
	}
	p := r.pathLinks[i][j]
	if p == nil {
		return -1
	}
	return len(p)
}

// WeightSum returns the total routing weight along the route
// (+Inf if unreachable).
func (r *Routing) WeightSum(i, j PID) float64 { return r.dist[i][j] }

// DistanceKm returns the sum of link distances d_e along the route: the
// paper's end-to-end distance d_ij (0 when i == j, +Inf if unreachable).
func (r *Routing) DistanceKm(i, j PID) float64 {
	if i == j {
		return 0
	}
	p := r.pathLinks[i][j]
	if p == nil {
		return math.Inf(1)
	}
	sum := 0.0
	for _, e := range p {
		sum += r.g.Link(e).DistanceKm
	}
	return sum
}

// PropagationDelaySeconds estimates the one-way propagation delay along
// the route from the link distances, at 5 microseconds per kilometre
// (speed of light in fibre). Delay-localized peer selection ranks peers
// by twice this value (an idealized RTT).
func (r *Routing) PropagationDelaySeconds(i, j PID) float64 {
	d := r.DistanceKm(i, j)
	if math.IsInf(d, 1) {
		return math.Inf(1)
	}
	return d * 5e-6
}

// dijkstra computes single-source shortest paths by link weight,
// returning per-node distance and the predecessor link on the shortest
// path tree (valid where distance is finite and node != src). A settled
// node's predecessor is final: a weight too small to change a sum (1e-300
// after 1) would otherwise tie it back to a later node and close a cycle.
func dijkstra(g *Graph, src PID) (dist []float64, prev []LinkID) {
	n := g.NumNodes()
	dist = make([]float64, n)
	prev = make([]LinkID, n)
	settled := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[src] = 0
	pq := &nodeHeap{{node: src, dist: 0}}
	for pq.Len() > 0 {
		item := heap.Pop(pq).(nodeItem)
		if item.dist > dist[item.node] {
			continue // stale entry
		}
		settled[item.node] = true
		for _, id := range g.OutLinks(item.node) {
			l := g.Link(id)
			nd := item.dist + l.Weight
			switch {
			case nd < dist[l.Dst]:
				dist[l.Dst] = nd
				prev[l.Dst] = id
				heap.Push(pq, nodeItem{node: l.Dst, dist: nd})
			case nd == dist[l.Dst] && !settled[l.Dst] && id < prev[l.Dst]:
				// Deterministic tie-break: prefer the lower link ID.
				prev[l.Dst] = id
			}
		}
	}
	return dist, prev
}

type nodeItem struct {
	node PID
	dist float64
}

type nodeHeap []nodeItem

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	return h[i].node < h[j].node
}
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(nodeItem)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
