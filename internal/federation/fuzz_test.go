package federation

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"p4p/internal/core"
	"p4p/internal/topology"
)

// floydWarshall returns all-pairs shortest distances over n nodes, +Inf
// where no path exists; w[i][j] is the direct edge cost or +Inf.
func floydWarshall(w [][]float64) [][]float64 {
	n := len(w)
	d := make([][]float64, n)
	for i := range d {
		d[i] = slices.Clone(w[i])
		d[i][i] = 0
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if s := d[i][k] + d[k][j]; s < d[i][j] {
					d[i][j] = s
				}
			}
		}
	}
	return d
}

// FuzzMergeMatchesFloydWarshall is Merge's oracle: a random link graph
// with small integer costs (so every sum is exact) is sharded at random
// into 2–4 shards. Each shard serves Floyd–Warshall over its induced
// subgraph, the cross-shard links are the circuits (some shard pairs
// multihomed, some gateway pairs doubled at another cost), and some
// shards are down. Same-shard entries must be the shard's own view, and
// cross-shard entries Floyd–Warshall over the whole graph without the
// down shards.
func FuzzMergeMatchesFloydWarshall(f *testing.F) {
	f.Add(uint64(1), uint8(4))
	f.Add(uint64(2), uint8(11))
	f.Add(uint64(42), uint8(7))
	f.Add(uint64(7), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, size uint8) {
		rng := rand.New(rand.NewPCG(seed, uint64(size)))
		n := 2 + int(size%11)
		k := 2 + rng.IntN(min(3, n-1))
		shardOf := make([]int, n)
		for i := range shardOf {
			shardOf[i] = i % k // every shard owns a node
		}
		rng.Shuffle(n, func(i, j int) { shardOf[i], shardOf[j] = shardOf[j], shardOf[i] })
		pid := func(i int) topology.PID { return topology.PID(3*i + 1) }
		name := func(s int) string { return fmt.Sprintf("s%d", s) }
		down := make([]bool, k)
		for s := range down {
			down[s] = rng.IntN(4) == 0
		}
		down[rng.IntN(k)] = false

		w := make([][]float64, n) // whole graph; down shards are cut below
		for i := range w {
			w[i] = make([]float64, n)
			for j := range w[i] {
				w[i][j] = math.Inf(1)
			}
		}
		density := 0.2 + 0.6*rng.Float64()
		var circuits []Circuit
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() >= density {
					continue
				}
				cost := float64(1 + rng.IntN(9))
				w[i][j], w[j][i] = cost, cost
				if shardOf[i] == shardOf[j] {
					continue
				}
				a, b := i, j
				if rng.IntN(2) == 0 {
					a, b = j, i
				}
				circuits = append(circuits, Circuit{A: name(shardOf[a]), APID: pid(a), B: name(shardOf[b]), BPID: pid(b), Cost: cost})
				if rng.IntN(4) == 0 { // a parallel circuit at another cost
					other := float64(1 + rng.IntN(9))
					circuits = append(circuits, Circuit{A: name(shardOf[a]), APID: pid(a), B: name(shardOf[b]), BPID: pid(b), Cost: other})
					w[i][j], w[j][i] = min(cost, other), min(cost, other)
				}
			}
		}

		// Each shard's view: Floyd–Warshall over its induced subgraph,
		// PIDs ascending.
		shards := make([]ShardView, k)
		for s := range shards {
			shards[s].Name = name(s)
			if down[s] {
				continue
			}
			var nodes []int
			for i := range shardOf {
				if shardOf[i] == s {
					nodes = append(nodes, i)
				}
			}
			sub := make([][]float64, len(nodes))
			v := &core.View{Version: rng.IntN(100), PIDs: make([]topology.PID, len(nodes))}
			for a, i := range nodes {
				v.PIDs[a] = pid(i)
				sub[a] = make([]float64, len(nodes))
				for b, j := range nodes {
					sub[a][b] = w[i][j]
				}
			}
			v.D = floydWarshall(sub)
			shards[s].View = v
		}
		for i := range w {
			for j := range w[i] {
				if down[shardOf[i]] || down[shardOf[j]] {
					w[i][j] = math.Inf(1)
				}
			}
		}
		whole := floydWarshall(w)

		got, err := Merge(shards, circuits)
		if err != nil {
			t.Fatal(err)
		}
		var wantPIDs []topology.PID
		for i := range shardOf {
			if !down[shardOf[i]] {
				wantPIDs = append(wantPIDs, pid(i))
			}
		}
		if !slices.Equal(got.PIDs, wantPIDs) {
			t.Fatalf("merged PIDs %v, want %v", got.PIDs, wantPIDs)
		}
		for i := range shardOf {
			for j := range shardOf {
				if down[shardOf[i]] || down[shardOf[j]] {
					continue
				}
				want := whole[i][j]
				if shardOf[i] == shardOf[j] {
					want = shards[shardOf[i]].View.Distance(pid(i), pid(j))
				}
				if d := got.Distance(pid(i), pid(j)); d != want {
					t.Fatalf("d(%d,%d) = %v, want %v (shards %v, down %v, circuits %v)",
						pid(i), pid(j), d, want, shardOf, down, circuits)
				}
			}
		}
	})
}
