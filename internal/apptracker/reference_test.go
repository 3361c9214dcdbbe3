package apptracker

// The slow oracle for P4P.Select and Random.Select: the implementations
// as they stood before the counting-sorted, selector-owned-scratch
// rewrite (PR 19), moved here verbatim apart from their names and the
// view arriving as an argument. refSelect still draws its PIDs with the
// map-based samplePID in matching.go, which PandoMatching keeps using.
// FuzzSelectMatchesReference and TestSelectMatchesReference hold the
// shipping selector to these, draw for draw.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"p4p/internal/core"
	"p4p/internal/topology"
)

func refRandomSelect(self Node, candidates []Node, m int, rng *rand.Rand) []int {
	n := len(candidates)
	if m > n {
		m = n
	}
	if m <= 0 {
		return nil
	}
	chosen := make(map[int]struct{}, m+1)
	out := make([]int, 0, m)
	selfDrawn := false
	for j := n - m; j < n; j++ {
		t := rng.Intn(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
		if candidates[t].ID == self.ID {
			selfDrawn = true
			continue
		}
		out = append(out, t)
	}
	if !selfDrawn || m == n {
		// m == n with self drawn: every candidate is already in the
		// draw, so the documented fewer-than-m case applies.
		return out
	}
	// Refill the slot self consumed: one uniform draw over the n-m
	// untouched indices. Rejection sampling needs n/(n-m) expected
	// attempts; the linear-scan fallback keeps the loop bounded even if
	// the rng is pathologically unlucky (at most ~(m/n)^64 probability,
	// and exact whenever a single free index remains).
	for attempts := 0; attempts < 64; attempts++ {
		t := rng.Intn(n)
		if _, dup := chosen[t]; !dup {
			return append(out, t)
		}
	}
	start := rng.Intn(n)
	for k := 0; k < n; k++ {
		t := (start + k) % n
		if _, dup := chosen[t]; !dup {
			return append(out, t)
		}
	}
	return out
}

func refSelect(view *core.View, config P4PConfig, self Node, candidates []Node, m int, rng *rand.Rand) []int {
	cfg := config.withDefaults()
	if view == nil {
		// No iTracker covers this AS: applications make default
		// decisions (the paper's robustness answer) — fall back to
		// random selection.
		return refRandomSelect(self, candidates, m, rng)
	}
	taken := make([]bool, len(candidates))
	var out []int
	take := func(i int) {
		taken[i] = true
		out = append(out, i)
	}

	// Stage 1: intra-PID.
	intraCap := int(upperBoundIntraPID * float64(m))
	var intra []int
	for i, c := range candidates {
		if c.ID != self.ID && c.ASN == self.ASN && c.PID == self.PID {
			intra = append(intra, i)
		}
	}
	refShuffle(rng, intra)
	for _, i := range intra {
		if len(out) >= intraCap {
			break
		}
		take(i)
	}

	// Stage 2: inter-PID within the AS, weighted sampling by PID. The
	// cumulative in-AS bound adapts to relative distances, per Section
	// 6.2: the default is an upper bound, raised toward 1 when external
	// ASes are far more expensive than in-AS peers (and conversely the
	// default applies when interdomain distances are comparable).
	interFrac := upperBoundInterPID
	if adj := refInterASAdjustment(view, self, candidates); adj > 0 {
		interFrac += (1 - upperBoundInterPID) * adj
	}
	interCap := int(interFrac * float64(m))
	weights := refWeights(view, self.PID, cfg.Gamma)
	byPID := map[topology.PID][]int{}
	var pidsInAS []topology.PID
	for i, c := range candidates {
		if taken[i] || c.ID == self.ID || c.ASN != self.ASN || c.PID == self.PID {
			continue
		}
		if _, seen := byPID[c.PID]; !seen {
			pidsInAS = append(pidsInAS, c.PID)
		}
		byPID[c.PID] = append(byPID[c.PID], i)
	}
	sort.Slice(pidsInAS, func(a, b int) bool { return pidsInAS[a] < pidsInAS[b] })
	for _, pid := range pidsInAS {
		refShuffle(rng, byPID[pid])
	}
	for len(out) < interCap {
		pid, ok := samplePID(rng, pidsInAS, byPID, weights)
		if !ok {
			break
		}
		bucket := byPID[pid]
		take(bucket[len(bucket)-1])
		byPID[pid] = bucket[:len(bucket)-1]
	}

	// Stage 3: inter-AS. The per-AS quota is inversely proportional to
	// the p-distance from the client's PID to the AS (approximated by
	// the minimum p-distance to any of that AS's candidate PIDs), and
	// within the chosen AS candidates are drawn by the same
	// inverse-distance PID weights as stage 2, so crossing traffic
	// prefers the cheaper interdomain circuits.
	var externASNs []int
	byASPID := map[int]map[topology.PID][]int{}
	asPIDs := map[int][]topology.PID{}
	asDist := map[int]float64{}
	for i, c := range candidates {
		if taken[i] || c.ID == self.ID || c.ASN == self.ASN {
			continue
		}
		if _, seen := byASPID[c.ASN]; !seen {
			externASNs = append(externASNs, c.ASN)
			byASPID[c.ASN] = map[topology.PID][]int{}
			asDist[c.ASN] = view.Distance(self.PID, c.PID)
		} else if d := view.Distance(self.PID, c.PID); d < asDist[c.ASN] {
			asDist[c.ASN] = d
		}
		if _, seen := byASPID[c.ASN][c.PID]; !seen {
			asPIDs[c.ASN] = append(asPIDs[c.ASN], c.PID)
		}
		byASPID[c.ASN][c.PID] = append(byASPID[c.ASN][c.PID], i)
	}
	sort.Ints(externASNs)
	for _, asn := range externASNs {
		sort.Slice(asPIDs[asn], func(a, b int) bool { return asPIDs[asn][a] < asPIDs[asn][b] })
		for _, pid := range asPIDs[asn] {
			refShuffle(rng, byASPID[asn][pid])
		}
	}
	asWeight := map[int]float64{}
	asTotal := 0.0
	for _, asn := range externASNs {
		d := asDist[asn]
		w := 1.0
		if d > 0 {
			w = 1 / d
		} else if d == 0 {
			w = 1e6
		}
		asWeight[asn] = w
		asTotal += w
	}
	pidWeights := refWeights(view, self.PID, cfg.Gamma)
	for len(out) < m && asTotal > 0 {
		// Draw the AS.
		x := rng.Float64() * asTotal
		chosen := -1
		for _, asn := range externASNs {
			if len(asPIDs[asn]) == 0 {
				continue
			}
			x -= asWeight[asn]
			if x <= 0 || chosen < 0 {
				chosen = asn
				if x <= 0 {
					break
				}
			}
		}
		if chosen < 0 {
			break
		}
		// Draw the PID within the AS by inverse p-distance.
		pid, ok := samplePID(rng, asPIDs[chosen], byASPID[chosen], pidWeights)
		if !ok {
			// AS exhausted: retire it.
			asTotal -= asWeight[chosen]
			asWeight[chosen] = 0
			asPIDs[chosen] = nil
			continue
		}
		bucket := byASPID[chosen][pid]
		take(bucket[len(bucket)-1])
		byASPID[chosen][pid] = bucket[:len(bucket)-1]
	}

	// Backfill if the staged quotas could not reach m but untaken
	// candidates remain (robustness: connectivity first). Preference
	// order keeps the locality caps meaningful: other ASes, then other
	// PIDs in this AS, then the client's own PID as a last resort.
	if len(out) < m {
		var otherAS, otherPID, samePID []int
		for i, c := range candidates {
			if taken[i] || c.ID == self.ID {
				continue
			}
			switch {
			case c.ASN != self.ASN:
				otherAS = append(otherAS, i)
			case c.PID != self.PID:
				otherPID = append(otherPID, i)
			default:
				samePID = append(samePID, i)
			}
		}
		for _, class := range [][]int{otherAS, otherPID, samePID} {
			refShuffle(rng, class)
			for _, i := range class {
				if len(out) >= m {
					break
				}
				take(i)
			}
		}
	}
	return out
}

func refInterASAdjustment(view *core.View, self Node, candidates []Node) float64 {
	var inSum, extSum float64
	var inN, extN int
	seenIn := map[topology.PID]bool{}
	seenExt := map[topology.PID]bool{}
	for _, c := range candidates {
		if c.ID == self.ID {
			continue
		}
		d := view.Distance(self.PID, c.PID)
		if math.IsInf(d, 1) {
			continue
		}
		if c.ASN == self.ASN {
			if c.PID != self.PID && !seenIn[c.PID] {
				seenIn[c.PID] = true
				inSum += d
				inN++
			}
		} else if !seenExt[c.PID] {
			seenExt[c.PID] = true
			extSum += d
			extN++
		}
	}
	if inN == 0 || extN == 0 {
		return 0
	}
	inAvg := inSum / float64(inN)
	extAvg := extSum / float64(extN)
	if extAvg <= 0 || extAvg <= inAvg {
		return 0
	}
	// Smoothly approach 1 as extAvg/inAvg grows; at 2x the adjustment
	// is 0.5, at 10x it is 0.9.
	const eps = 1e-12
	ratio := extAvg / (inAvg + eps)
	return 1 - 1/ratio
}

func refWeights(v *core.View, i topology.PID, gamma float64) map[topology.PID]float64 {
	if gamma <= 0 || gamma > 1 {
		panic(fmt.Sprintf("core: concavity exponent %v out of (0, 1]", gamma))
	}
	a, ok := v.Index(i)
	if !ok {
		panic(fmt.Sprintf("core: PID %d not in view", i))
	}
	// The "large value" substituted for 1/0. Anything much larger than
	// the other weights works; it is normalized away below.
	const largeWeight = 1e6
	raw := map[topology.PID]float64{}
	sum := 0.0
	for b, j := range v.PIDs {
		if b == a {
			continue
		}
		d := v.D[a][b]
		if math.IsInf(d, 1) {
			continue
		}
		var w float64
		if d <= 0 {
			w = largeWeight
		} else {
			w = 1 / d
		}
		w = math.Pow(w, gamma)
		raw[j] = w
		sum += w
	}
	if sum == 0 {
		return raw
	}
	for j := range raw {
		raw[j] /= sum
	}
	return raw
}

func refShuffle(rng *rand.Rand, s []int) {
	rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
}
