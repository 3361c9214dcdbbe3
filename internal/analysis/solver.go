package analysis

import "sort"

// Solve runs a forward worklist fixed point over an arbitrary directed
// graph. Seeds carry the initial facts; whenever a node's fact is set
// or changed, its successors (per out) are revisited. transfer merges
// an incoming fact into the target node's current fact: it receives
// the edge (from, fact) and the target's current fact (with ok=false
// on first visit) and returns the new fact plus whether it changed.
// The result maps every node that ended up with a fact to that fact.
//
// Nodes are processed in sorted key order (per less) so runs are
// deterministic regardless of map iteration; lockheld relies on this
// for stable diagnostic output (which blocking chain a shared callee
// is attributed to).
//
// Termination is the caller's contract: transfer must be monotone over
// a finite fact domain (transitive blocking uses "fact present" as its
// lattice, which trivially converges).
func Solve[N comparable, F any](
	seeds map[N]F,
	out func(N) []N,
	transfer func(node N, cur F, ok bool, from N, fact F) (F, bool),
	less func(a, b N) bool,
) map[N]F {
	facts := make(map[N]F, len(seeds))
	var work []N
	for n, f := range seeds {
		facts[n] = f
		work = append(work, n)
	}
	sort.Slice(work, func(i, j int) bool { return less(work[i], work[j]) })
	queued := make(map[N]bool, len(work))
	for _, n := range work {
		queued[n] = true
	}
	for len(work) > 0 {
		n := work[0]
		work = work[1:]
		queued[n] = false
		fact := facts[n]
		for _, succ := range sortedNodes(out(n), less) {
			cur, ok := facts[succ]
			next, changed := transfer(succ, cur, ok, n, fact)
			if !changed {
				continue
			}
			facts[succ] = next
			if !queued[succ] {
				queued[succ] = true
				work = append(work, succ)
			}
		}
	}
	return facts
}

func sortedNodes[N comparable](nodes []N, less func(a, b N) bool) []N {
	if len(nodes) < 2 {
		return nodes
	}
	cp := make([]N, len(nodes))
	copy(cp, nodes)
	sort.Slice(cp, func(i, j int) bool { return less(cp[i], cp[j]) })
	return cp
}
