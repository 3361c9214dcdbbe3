// Package topology provides the PID-level network substrate used by the
// P4P reproduction: directed graphs of PoP-level nodes and capacitated
// links, OSPF-style shortest-path routing, and the built-in topologies
// evaluated by the paper (Abilene plus synthetic stand-ins for the
// proprietary ISP-A, ISP-B and ISP-C PoP-level maps).
//
// Terminology follows the paper: a node is a PID (an opaque ID that most
// commonly aggregates the clients of one point of presence), links carry a
// capacity c_e, a routing weight, and a distance d_e, and routing induces
// the indicator I_e(i,j) of link e being on the route from PID i to PID j.
package topology

import (
	"fmt"
	"math"
	"sort"
)

// PID identifies a node in a Graph. PIDs are dense indices assigned in
// insertion order, so they can be used directly as slice indices.
type PID int

// LinkID identifies a directed link in a Graph, dense in insertion order.
type LinkID int

// NodeKind distinguishes the PID types of the paper's internal view.
type NodeKind int

const (
	// Aggregation PIDs represent sets of clients (e.g. one PoP). They are
	// the externally visible PIDs of the p4p-distance interface.
	Aggregation NodeKind = iota
	// Core PIDs represent internal routers. They appear only in the
	// internal view and are never exposed to applications.
	Core
	// External PIDs represent external-domain attachment points, e.g. the
	// far end of an interdomain link.
	External
)

func (k NodeKind) String() string {
	switch k {
	case Aggregation:
		return "aggregation"
	case Core:
		return "core"
	case External:
		return "external"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Node is a PID-level node of the internal view.
type Node struct {
	ID    PID
	Name  string
	Kind  NodeKind
	Metro string  // metro area label; empty if the topology has no metros
	ASN   int     // autonomous system number of the owning network
	Lat   float64 // degrees; used to derive propagation distances
	Lon   float64
}

// Link is a directed PID-level link of the internal view.
type Link struct {
	ID          LinkID
	Src, Dst    PID
	CapacityBps float64 // capacity c_e in bits per second
	Weight      float64 // OSPF-style routing weight (>0)
	DistanceKm  float64 // distance metric d_e; km for real topologies
	Interdomain bool    // true if this link crosses an AS boundary
}

// Graph is a directed multigraph of PID-level nodes and links. The zero
// value is an empty graph ready for use.
type Graph struct {
	Name  string
	nodes []Node
	links []Link
	out   [][]LinkID // out[pid] lists links with Src == pid
	in    [][]LinkID // in[pid] lists links with Dst == pid
}

// NewGraph returns an empty graph with the given name.
func NewGraph(name string) *Graph {
	return &Graph{Name: name}
}

// AddNode appends a node and returns its PID. The ID, if set by the
// caller, is overwritten with the assigned dense index.
func (g *Graph) AddNode(n Node) PID {
	n.ID = PID(len(g.nodes))
	g.nodes = append(g.nodes, n)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return n.ID
}

// AddLink appends a directed link and returns its LinkID. It panics if an
// endpoint is out of range or checkLink refuses the link's attributes or
// the graph's totals with it;
// topologies are constructed by code, so a malformed one is a
// programming error.
func (g *Graph) AddLink(l Link) LinkID {
	if int(l.Src) < 0 || int(l.Src) >= len(g.nodes) || int(l.Dst) < 0 || int(l.Dst) >= len(g.nodes) {
		panic(fmt.Sprintf("topology: link endpoint out of range: %d->%d (have %d nodes)", l.Src, l.Dst, len(g.nodes)))
	}
	if l.Src == l.Dst {
		panic(fmt.Sprintf("topology: self-loop on PID %d", l.Src))
	}
	g.checkLink(l, -1)
	l.ID = LinkID(len(g.links))
	g.links = append(g.links, l)
	g.out[l.Src] = append(g.out[l.Src], l.ID)
	g.in[l.Dst] = append(g.in[l.Dst], l.ID)
	return l.ID
}

// AddDuplex adds a pair of directed links, one in each direction, sharing
// capacity, weight and distance, and returns their IDs (forward, reverse).
func (g *Graph) AddDuplex(src, dst PID, capacityBps, weight, distanceKm float64) (LinkID, LinkID) {
	f := g.AddLink(Link{Src: src, Dst: dst, CapacityBps: capacityBps, Weight: weight, DistanceKm: distanceKm})
	r := g.AddLink(Link{Src: dst, Dst: src, CapacityBps: capacityBps, Weight: weight, DistanceKm: distanceKm})
	return f, r
}

// NumNodes reports the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumLinks reports the number of directed links.
func (g *Graph) NumLinks() int { return len(g.links) }

// Node returns the node with the given PID.
func (g *Graph) Node(id PID) Node { return g.nodes[id] }

// Link returns the link with the given ID.
func (g *Graph) Link(id LinkID) Link { return g.links[id] }

// SetLink replaces the stored attributes of a link. The endpoints and ID
// must not change; use it to mark links interdomain or adjust capacity.
func (g *Graph) SetLink(l Link) {
	old := g.links[l.ID]
	if old.Src != l.Src || old.Dst != l.Dst {
		panic("topology: SetLink must not change endpoints")
	}
	g.checkLink(l, l.ID)
	g.links[l.ID] = l
}

// maxTotalCapacityBps bounds a graph's total link capacity, in bit/s.
// The MLU engine starts every price at 1/Σc and projects price/capacity
// ratios; with each capacity at least 1 bit/s and Σc at most this, those
// stay normal floats, and neither underflows to 0 nor overflows.
const maxTotalCapacityBps = 1e150

// checkLink panics unless l's capacity is at least 1 bit/s, its weight
// finite and positive, its distance finite and non-negative, and, with
// l in place of link skip (-1: appended), the graph's total capacity at
// most maxTotalCapacityBps and its total weight and distance finite: the
// totals bound every route's weight and distance sum.
func (g *Graph) checkLink(l Link, skip LinkID) {
	if !(l.CapacityBps >= 1 && l.CapacityBps <= math.MaxFloat64 &&
		l.Weight > 0 && l.Weight <= math.MaxFloat64 && l.DistanceKm >= 0 && l.DistanceKm <= math.MaxFloat64) {
		panic(fmt.Sprintf("topology: link %d->%d needs a finite capacity >= 1, weight > 0 and distance >= 0: %+v", l.Src, l.Dst, l))
	}
	capSum, weightSum, distSum := l.CapacityBps, l.Weight, l.DistanceKm
	for _, o := range g.links {
		if o.ID != skip {
			capSum, weightSum, distSum = capSum+o.CapacityBps, weightSum+o.Weight, distSum+o.DistanceKm
		}
	}
	if !(capSum <= maxTotalCapacityBps && weightSum <= math.MaxFloat64 && distSum <= math.MaxFloat64) {
		panic(fmt.Sprintf("topology: link %d->%d takes the graph's total capacity to %v (at most %g), weight to %v or distance to %v: %+v",
			l.Src, l.Dst, capSum, maxTotalCapacityBps, weightSum, distSum, l))
	}
}

// Nodes returns a copy of the node list.
func (g *Graph) Nodes() []Node {
	out := make([]Node, len(g.nodes))
	copy(out, g.nodes)
	return out
}

// Links returns a copy of the link list.
func (g *Graph) Links() []Link {
	out := make([]Link, len(g.links))
	copy(out, g.links)
	return out
}

// OutLinks returns the IDs of links leaving pid. The returned slice must
// not be modified.
func (g *Graph) OutLinks(pid PID) []LinkID { return g.out[pid] }

// InLinks returns the IDs of links entering pid. The returned slice must
// not be modified.
func (g *Graph) InLinks(pid PID) []LinkID { return g.in[pid] }

// FindNode returns the PID of the node with the given name.
func (g *Graph) FindNode(name string) (PID, bool) {
	for _, n := range g.nodes {
		if n.Name == name {
			return n.ID, true
		}
	}
	return -1, false
}

// FindLink returns the ID of the first link from src to dst.
func (g *Graph) FindLink(src, dst PID) (LinkID, bool) {
	for _, id := range g.out[src] {
		if g.links[id].Dst == dst {
			return id, true
		}
	}
	return -1, false
}

// AggregationPIDs returns the externally visible PIDs — the aggregation
// nodes — in ascending order.
func (g *Graph) AggregationPIDs() []PID {
	var out []PID
	for _, n := range g.nodes {
		if n.Kind == Aggregation {
			out = append(out, n.ID)
		}
	}
	return out
}

// Metros returns the sorted list of distinct non-empty metro labels.
func (g *Graph) Metros() []string {
	seen := map[string]bool{}
	for _, n := range g.nodes {
		if n.Metro != "" {
			seen[n.Metro] = true
		}
	}
	out := make([]string, 0, len(seen))
	for m := range seen {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// MetroOf returns the metro label of a PID ("" if none).
func (g *Graph) MetroOf(pid PID) string { return g.nodes[pid].Metro }

// InterdomainLinks returns the IDs of all links marked interdomain.
func (g *Graph) InterdomainLinks() []LinkID {
	var out []LinkID
	for _, l := range g.links {
		if l.Interdomain {
			out = append(out, l.ID)
		}
	}
	return out
}

// Validate checks that the graph is non-empty and weakly connected.
// Link attributes need no check here: AddLink and SetLink refuse bad ones.
func (g *Graph) Validate() error {
	if len(g.nodes) == 0 {
		return fmt.Errorf("topology %q: empty graph", g.Name)
	}
	// Weak connectivity: union of both directions must connect all nodes.
	visited := make([]bool, len(g.nodes))
	stack := []PID{0}
	visited[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, id := range g.out[u] {
			v := g.links[id].Dst
			if !visited[v] {
				visited[v] = true
				count++
				stack = append(stack, v)
			}
		}
		for _, id := range g.in[u] {
			v := g.links[id].Src
			if !visited[v] {
				visited[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	if count != len(g.nodes) {
		return fmt.Errorf("topology %q: graph is disconnected (%d of %d nodes reachable)", g.Name, count, len(g.nodes))
	}
	return nil
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := NewGraph(g.Name)
	c.nodes = append([]Node(nil), g.nodes...)
	c.links = append([]Link(nil), g.links...)
	c.out = make([][]LinkID, len(g.out))
	c.in = make([][]LinkID, len(g.in))
	for i := range g.out {
		c.out[i] = append([]LinkID(nil), g.out[i]...)
		c.in[i] = append([]LinkID(nil), g.in[i]...)
	}
	return c
}
