package analysis

import "testing"

// TestSolveJoins checks that Solve merges facts flowing in over
// multiple edges and converges on a cyclic graph: shortest hop count
// from node 1 over edges with a cycle.
func TestSolveJoins(t *testing.T) {
	edges := map[int][]int{1: {2, 3}, 2: {4}, 3: {4}, 4: {2, 5}}
	dist := Solve(map[int]int{1: 0},
		func(n int) []int { return edges[n] },
		func(_ int, cur int, ok bool, _ int, fact int) (int, bool) {
			if ok && cur <= fact+1 {
				return cur, false
			}
			return fact + 1, true
		},
		func(a, b int) bool { return a < b })
	want := map[int]int{1: 0, 2: 1, 3: 1, 4: 2, 5: 3}
	if len(dist) != len(want) {
		t.Fatalf("dist = %v, want %v", dist, want)
	}
	for n, d := range want {
		if dist[n] != d {
			t.Errorf("dist[%d] = %d, want %d", n, dist[n], d)
		}
	}
}
