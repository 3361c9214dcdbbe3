package core

import (
	"math"

	"p4p/internal/topology"
)

// The engine's kernels as they stood before they were rebuilt in place,
// kept unchanged (only renamed ref*, and reading the one background the
// engine now holds) as the oracles of
// TestEngineMatchesReference and FuzzEngineMatchesReference: Update with
// its per-call slices and the always-200-round bisection, Matrix with one
// path walk per PID pair. They read the graph directly, so they also
// check the per-link snapshot NewEngine takes.

func (e *Engine) refMLULocked() float64 {
	alpha := 0.0
	for i, l := range e.g.Links() {
		u := (e.bg[i] + e.lastT[i]) / l.CapacityBps
		if u > alpha {
			alpha = u
		}
	}
	return alpha
}

// refUpdate performs one projected super-gradient step from the last
// observation, following Proposition 1 and its extensions.
func (e *Engine) refUpdate() {
	e.mu.Lock()
	defer e.mu.Unlock()
	links := e.g.Links()
	bg := e.bg
	mu := e.cfg.StepSize

	switch e.cfg.Objective {
	case MinimizeMLU:
		alpha := e.refMLULocked()
		// Gradient step on intradomain links, capacity-weighted simplex
		// projection afterwards. Interdomain links with a virtual
		// capacity use the eq. 16 price instead and stay out of the
		// simplex.
		var intraIdx []int
		var intraY []float64
		var intraCap []float64
		for i, l := range links {
			if l.Interdomain && !math.IsNaN(e.virtual[i]) {
				// Normalize the constraint t_e <= v_e by v_e so the step
				// size is comparable across links of different scale.
				scale := e.virtual[i]
				if scale <= 0 {
					scale = l.CapacityBps
				}
				g := (e.lastT[i] - e.virtual[i]) / scale
				e.prices[i] = math.Max(0, e.prices[i]+mu*g)
				continue
			}
			// ξ_e = b_e + t̄_e − α c_e, normalized by Σc to keep the
			// simplex step well-scaled.
			g := (bg[i] + e.lastT[i] - alpha*l.CapacityBps) / l.CapacityBps
			intraIdx = append(intraIdx, i)
			intraY = append(intraY, e.prices[i]+mu*g/l.CapacityBps)
			intraCap = append(intraCap, l.CapacityBps)
		}
		proj := refProjectWeightedSimplex(intraY, intraCap)
		for k, i := range intraIdx {
			e.prices[i] = proj[k]
		}
	case MinimizeBDP:
		for i, l := range links {
			if l.Interdomain && !math.IsNaN(e.virtual[i]) {
				scale := e.virtual[i]
				if scale <= 0 {
					scale = l.CapacityBps
				}
				g := (e.lastT[i] - e.virtual[i]) / scale
				e.prices[i] = math.Max(0, e.prices[i]+mu*g)
				continue
			}
			// ξ_e = b_e + t̄_e − c_e (eq. 15), normalized by c_e.
			g := (bg[i] + e.lastT[i] - l.CapacityBps) / l.CapacityBps
			e.prices[i] = math.Max(0, e.prices[i]+mu*g)
		}
	}
	e.version++
}

// refLinkPrice is the per-link contribution to exposed distances.
func (e *Engine) refLinkPrice(i int, l topology.Link) float64 {
	if e.cfg.Objective == MinimizeBDP {
		// Exposed distances for BDP are {p_ij + d_ij} (eq. 15 and the
		// derivation following it).
		return e.prices[i] + l.DistanceKm
	}
	return e.prices[i]
}

func (e *Engine) refPDistanceLocked(i, j topology.PID) float64 {
	if i == j {
		return 0
	}
	path := e.r.Path(i, j)
	if path == nil {
		return math.Inf(1)
	}
	sum := 0.0
	for _, id := range path {
		sum += e.refLinkPrice(int(id), e.g.Link(id))
	}
	return sum
}

// refMatrix materializes the external view over the given PIDs. This is
// what the p4p-distance interface serves to applications.
func (e *Engine) refMatrix(pids []topology.PID) *View {
	e.mu.RLock()
	defer e.mu.RUnlock()
	v := &View{PIDs: append([]topology.PID(nil), pids...), D: make([][]float64, len(pids))}
	for a, i := range pids {
		v.D[a] = make([]float64, len(pids))
		for b, j := range pids {
			v.D[a][b] = e.refPDistanceLocked(i, j)
		}
	}
	v.Version = e.version
	return v
}

// refProjectWeightedSimplex computes the Euclidean projection of y onto the
// weighted simplex S = { p >= 0 : Σ_e c_e p_e = 1 } used by the MLU
// decomposition (eq. 14). The KKT conditions give p_e = max(0, y_e − λ c_e)
// for the λ solving f(λ) = Σ_e c_e max(0, y_e − λ c_e) = 1; f is
// continuous, piecewise-linear and strictly decreasing wherever positive,
// so bisection converges.
func refProjectWeightedSimplex(y, c []float64) []float64 {
	if len(y) != len(c) {
		panic("core: projection dimensions differ")
	}
	if len(y) == 0 {
		return nil
	}
	f := func(lambda float64) float64 {
		sum := 0.0
		for i := range y {
			v := y[i] - lambda*c[i]
			if v > 0 {
				sum += c[i] * v
			}
		}
		return sum
	}
	// Bracket the root. λ_hi such that f(λ_hi) <= 1: at
	// λ = max_i y_i/c_i every term is zero, so f = 0 <= 1.
	lo := math.Inf(-1)
	hi := math.Inf(1)
	for i := range y {
		r := y[i] / c[i]
		if math.IsInf(lo, -1) || r < lo {
			lo = r
		}
		if math.IsInf(hi, 1) || r > hi {
			hi = r
		}
	}
	// Push lo down until f(lo) >= 1.
	span := hi - lo
	if span <= 0 {
		span = math.Abs(hi) + 1
	}
	for f(lo) < 1 {
		lo -= span
		span *= 2
	}
	for iter := 0; iter < 200; iter++ {
		mid := (lo + hi) / 2
		if f(mid) > 1 {
			lo = mid
		} else {
			hi = mid
		}
	}
	lambda := (lo + hi) / 2
	out := make([]float64, len(y))
	for i := range y {
		v := y[i] - lambda*c[i]
		if v < 0 {
			v = 0
		}
		out[i] = v
	}
	// Exact renormalization to absorb bisection residue.
	sum := 0.0
	for i := range out {
		sum += c[i] * out[i]
	}
	if sum > 0 {
		inv := 1 / sum
		for i := range out {
			out[i] *= inv
		}
	}
	return out
}
