// Package federation composes many per-provider iTracker portals into
// one logical p4p-distance view. The paper's deployment story — "each
// provider maintains an iTracker for its own network", appTrackers
// consuming many portals at once — means nobody ever holds a global
// engine: every participant sees only per-shard external views plus
// the interdomain circuits that join them. This package owns that shape
// in three layers:
//
//   - Merge composes N shard views and the circuits between them into
//     one union *core.View (intradomain distances authoritative from
//     the owning provider, cross-shard distances via intradomain +
//     interdomain composition, Section 5.4 generalized to live views).
//   - Union (union.go) keeps one last-known-good view per member and
//     the merge of them fresh, with per-member degradation.
//   - Router (router.go) owns a Union and serves its merged view over
//     the standard portal wire protocol, per-member validators composed
//     into a federation ETag. apptracker.MultiPortalViews owns another
//     from the consuming side.
package federation

import (
	"fmt"
	"math"
	"sort"

	"p4p/internal/core"
	"p4p/internal/topology"
)

// Circuit is one interdomain adjacency between two shards: traffic from
// shard A's gateway PID to shard B's gateway PID costs Cost on top of
// the intradomain distances to reach the gateways. Circuits are duplex
// (the paper's interdomain links are duplex pairs); model an asymmetric
// peering as two shards whose intradomain views already price the
// asymmetry. Multihomed shard pairs list several circuits; composition
// takes the cheapest, which is exactly the Figure 10 multihoming
// machinery lifted out of the in-process engine.
type Circuit struct {
	// A and B name the shards the circuit joins (ShardView.Name /
	// ShardConfig.Name).
	A, B string
	// APID and BPID are the gateway PIDs on each side; each must be
	// present in its shard's view for the circuit to carry traffic.
	APID, BPID topology.PID
	// Cost is the circuit's p-distance contribution (interdomain price,
	// e.g. the provider's 95/5 transit cost on that link). Negative
	// costs are rejected by Merge.
	Cost float64
}

// ShardView is one backend portal's external view, tagged with the
// shard name circuits reference.
type ShardView struct {
	Name string
	View *core.View
}

// gatewayKey identifies one circuit endpoint in the composition graph.
type gatewayKey struct {
	shard string
	pid   topology.PID
}

// Merge composes shard views into one federated view over the union of
// their PIDs (sorted ascending, the same canonical order a single
// iTracker would serve):
//
//   - same-shard distances copy through unchanged — the owning provider
//     is authoritative for its intradomain matrix;
//   - cross-shard distances compose as intradomain(src→gateway) +
//     interdomain circuit costs + intradomain(gateway'→dst), minimized
//     over every gateway path, including multi-hop transit through
//     intermediate shards and multihomed parallel circuits;
//   - shard pairs with no usable circuit path are +Inf (unreachable),
//     matching core's convention.
//
// Circuits whose shard or gateway PID is absent from the given views
// are skipped, not rejected: a down shard takes its circuits with it
// and the rest of the federation keeps composing (the degradation rule
// of DESIGN.md §14). A PID served by two shards is a configuration
// error and fails loudly.
//
// The merged Version is the sum of shard versions: any backend bump
// changes it, and it is stable across shard orderings.
func Merge(shards []ShardView, circuits []Circuit) (*core.View, error) {
	type owner struct {
		shard int // index into shards
		row   int // row in that shard's view
	}
	own := make(map[topology.PID]owner)
	version := 0
	for si, sh := range shards {
		if sh.View == nil {
			continue
		}
		version += sh.View.Version
		for ri, pid := range sh.View.PIDs {
			if prev, dup := own[pid]; dup {
				return nil, fmt.Errorf("federation: PID %d served by both shard %q and shard %q",
					pid, shards[prev.shard].Name, sh.Name)
			}
			own[pid] = owner{shard: si, row: ri}
		}
	}
	pids := make([]topology.PID, 0, len(own))
	for pid := range own {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })

	// Gateway meta-graph: nodes are usable circuit endpoints, edges are
	// circuit costs plus intradomain distances between same-shard
	// gateways. Floyd–Warshall gives all-pairs cheapest gateway-to-
	// gateway composition; the node count is 2×circuits, so cubic is
	// nothing, and the fixed k→i→j iteration order keeps the float
	// min-sums deterministic.
	viewOf := func(name string) *core.View {
		for _, sh := range shards {
			if sh.Name == name {
				return sh.View
			}
		}
		return nil
	}
	gwIdx := make(map[gatewayKey]int)
	var gws []gatewayKey
	addGW := func(k gatewayKey) int {
		if i, ok := gwIdx[k]; ok {
			return i
		}
		gwIdx[k] = len(gws)
		gws = append(gws, k)
		return len(gws) - 1
	}
	type edge struct {
		a, b int
		cost float64
	}
	var edges []edge
	for _, c := range circuits {
		if c.Cost < 0 || math.IsNaN(c.Cost) {
			return nil, fmt.Errorf("federation: circuit %s:%d-%s:%d has invalid cost %v",
				c.A, c.APID, c.B, c.BPID, c.Cost)
		}
		va, vb := viewOf(c.A), viewOf(c.B)
		if va == nil || vb == nil {
			continue // a down shard takes its circuits with it
		}
		if _, ok := va.Index(c.APID); !ok {
			continue
		}
		if _, ok := vb.Index(c.BPID); !ok {
			continue
		}
		a := addGW(gatewayKey{c.A, c.APID})
		b := addGW(gatewayKey{c.B, c.BPID})
		edges = append(edges, edge{a, b, c.Cost})
	}
	n := len(gws)
	meta := make([][]float64, n)
	for i := range meta {
		meta[i] = make([]float64, n)
		for j := range meta[i] {
			if i != j {
				meta[i][j] = math.Inf(1)
			}
		}
	}
	// Same-shard gateway pairs ride the shard's intradomain matrix.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || gws[i].shard != gws[j].shard {
				continue
			}
			v := viewOf(gws[i].shard)
			if d := v.Distance(gws[i].pid, gws[j].pid); d < meta[i][j] {
				meta[i][j] = d
			}
		}
	}
	for _, e := range edges {
		if e.cost < meta[e.a][e.b] {
			meta[e.a][e.b] = e.cost
		}
		if e.cost < meta[e.b][e.a] {
			meta[e.b][e.a] = e.cost
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d := meta[i][k] + meta[k][j]; d < meta[i][j] {
					meta[i][j] = d
				}
			}
		}
	}
	// Per-shard gateway lists, in meta-node order (deterministic), and
	// each gateway's row in its own shard's matrix.
	gwsOf := make(map[string][]int)
	gwRow := make([]int, n)
	for i, g := range gws {
		gwsOf[g.shard] = append(gwsOf[g.shard], i)
		gwRow[i] = mustRow(viewOf(g.shard), g.pid)
	}

	d := make([][]float64, len(pids))
	for a, src := range pids {
		row := make([]float64, len(pids))
		so := own[src]
		sv := shards[so.shard].View
		sname := shards[so.shard].Name
		for b, dst := range pids {
			do := own[dst]
			if do.shard == so.shard {
				row[b] = sv.D[so.row][do.row]
				continue
			}
			dv := shards[do.shard].View
			dname := shards[do.shard].Name
			best := math.Inf(1)
			for _, gi := range gwsOf[sname] {
				toGW := sv.D[so.row][gwRow[gi]]
				if math.IsInf(toGW, 1) {
					continue
				}
				for _, gj := range gwsOf[dname] {
					if math.IsInf(meta[gi][gj], 1) {
						continue
					}
					fromGW := dv.D[gwRow[gj]][do.row]
					if total := toGW + meta[gi][gj] + fromGW; total < best {
						best = total
					}
				}
			}
			row[b] = best
		}
		d[a] = row
	}
	return &core.View{PIDs: pids, D: d, Version: version}, nil
}

// mustRow returns the row of a PID known to be in the view (circuit
// endpoints are validated before composition).
func mustRow(v *core.View, pid topology.PID) int {
	i, ok := v.Index(pid)
	if !ok {
		panic(fmt.Sprintf("federation: gateway PID %d vanished from view", pid))
	}
	return i
}
