package apptracker

import (
	"math"
	"math/rand"
	"sort"

	"p4p/internal/core"
	"p4p/internal/topology"
)

// OptimizationService is the middleware of Section 6.2's Pando
// integration ("appTracker Optimization Service"): it sits between an
// appTracker and the iTrackers, takes the application's estimates of
// per-PID upload/download capacity, queries the p-distances, solves the
// bandwidth-matching program (eqs. 1–7), and returns per-source-PID
// peering weights w_ij = t_ij / Σ_j t_ij with the same small-weight
// boost used by P4P BitTorrent for robustness.
type OptimizationService struct {
	Views ViewProvider
	// Beta is the efficiency factor of eq. (6); default 1.0 (full OPT).
	Beta float64
	// Gamma is the concave robustness exponent applied to the weights
	// (default 0.5; 1 disables).
	Gamma float64
}

// Matching is the result of one optimization round: normalized peering
// weights per source PID.
type Matching struct {
	Weights map[topology.PID]map[topology.PID]float64
}

// Optimize runs the bandwidth-matching optimization for one AS and
// session capacities. The caller supplies, per PID, the session's
// aggregate upload and download estimates (bits/sec).
func (o *OptimizationService) Optimize(asn int, s core.Session) (*Matching, error) {
	beta := o.Beta
	if beta == 0 {
		beta = 1.0
	}
	gamma := o.Gamma
	if gamma == 0 {
		gamma = 0.5
	}
	view := o.Views.ViewFor(asn)
	if view == nil {
		// Without a view the matching degenerates to uniform weights.
		return uniformMatching(s), nil
	}
	t, err := core.MatchTraffic(view, s, beta)
	if err != nil {
		return nil, err
	}
	m := &Matching{Weights: map[topology.PID]map[topology.PID]float64{}}
	for a, i := range s.PIDs {
		row := map[topology.PID]float64{}
		sum := 0.0
		for b, j := range s.PIDs {
			if a == b || t[a][b] <= 0 {
				continue
			}
			w := pow(t[a][b], gamma) // concave boost of small weights
			row[j] = w
			sum += w
		}
		if sum == 0 {
			// This PID ships nothing under the optimum (e.g. zero upload
			// capacity); keep it connected uniformly for robustness.
			for b, j := range s.PIDs {
				if a != b {
					row[j] = 1
					sum++
				}
			}
		}
		for j := range row {
			row[j] /= sum
		}
		m.Weights[i] = row
	}
	return m, nil
}

func uniformMatching(s core.Session) *Matching {
	m := &Matching{Weights: map[topology.PID]map[topology.PID]float64{}}
	for a, i := range s.PIDs {
		row := map[topology.PID]float64{}
		n := len(s.PIDs) - 1
		if n <= 0 {
			m.Weights[i] = row
			continue
		}
		for b, j := range s.PIDs {
			if a != b {
				row[j] = 1 / float64(n)
			}
		}
		m.Weights[i] = row
	}
	return m
}

func pow(x, g float64) float64 {
	//p4pvet:ignore floatsentinel exact fast path, not a sentinel: g is a config value set literally to 1, and math.Pow(x, g) agrees whenever g is not exactly 1
	if g == 1 {
		return x
	}
	return math.Pow(x, g)
}

// PandoMatching selects peers per the Pando integration: a client at
// PID i picks peers at PID j with probability w_ij from the latest
// optimization round. Intra-PID peers are governed by SelfWeight (the
// optimization excludes the diagonal, but clients still benefit from
// same-PID neighbors; the paper's field test shows FTTP clients serving
// each other).
type PandoMatching struct {
	// MatchingFor returns the current matching for an AS, or nil.
	MatchingFor func(asn int) *Matching
	// SelfWeight is the relative weight of the client's own PID
	// (default 1.0, i.e. as attractive as the whole remote mass).
	SelfWeight float64
}

// Name implements Selector.
func (*PandoMatching) Name() string { return "p4p-pando" }

// Select implements Selector.
func (p *PandoMatching) Select(self Node, candidates []Node, m int, rng *rand.Rand) []int {
	match := p.MatchingFor(self.ASN)
	if match == nil {
		return Random{}.Select(self, candidates, m, rng)
	}
	weights := match.Weights[self.PID]
	selfW := p.SelfWeight
	if selfW == 0 {
		selfW = 1.0
	}
	byPID := map[topology.PID][]int{}
	var pids []topology.PID
	for i, c := range candidates {
		if c.ID == self.ID {
			continue
		}
		if _, seen := byPID[c.PID]; !seen {
			pids = append(pids, c.PID)
		}
		byPID[c.PID] = append(byPID[c.PID], i)
	}
	sort.Slice(pids, func(a, b int) bool { return pids[a] < pids[b] })
	for _, pid := range pids {
		shuffle(rng, byPID[pid])
	}
	wm := map[topology.PID]float64{}
	for _, pid := range pids {
		if pid == self.PID {
			wm[pid] = selfW
		} else if w, ok := weights[pid]; ok && w > 0 {
			wm[pid] = w
		}
		// PIDs outside the matching (e.g. other ASes) keep the small
		// robustness floor inside samplePID.
	}
	var out []int
	for len(out) < m {
		pid, ok := samplePID(rng, pids, byPID, wm)
		if !ok {
			break
		}
		bucket := byPID[pid]
		out = append(out, bucket[len(bucket)-1])
		byPID[pid] = bucket[:len(bucket)-1]
	}
	return out
}

// samplePID draws one key from keys with the given normalized weights,
// skipping keys with empty buckets. Returns false when nothing remains.
func samplePID(rng *rand.Rand, keys []topology.PID, buckets map[topology.PID][]int, weights map[topology.PID]float64) (topology.PID, bool) {
	total := 0.0
	for _, k := range keys {
		if len(buckets[k]) > 0 {
			w := weights[k]
			if w <= 0 {
				// PIDs absent from the weight map (e.g. unreachable)
				// still get a small floor so robustness is preserved.
				w = 1e-9
			}
			total += w
		}
	}
	if total == 0 {
		return 0, false
	}
	x := rng.Float64() * total
	for _, k := range keys {
		if len(buckets[k]) == 0 {
			continue
		}
		w := weights[k]
		if w <= 0 {
			w = 1e-9
		}
		x -= w
		if x <= 0 {
			return k, true
		}
	}
	// Floating point slack: return the last non-empty key.
	for i := len(keys) - 1; i >= 0; i-- {
		if len(buckets[keys[i]]) > 0 {
			return keys[i], true
		}
	}
	return 0, false
}
