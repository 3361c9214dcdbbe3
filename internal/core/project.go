package core

import (
	"fmt"
	"math"
)

// projectWeightedSimplex replaces y with its Euclidean projection onto
// the weighted simplex S = { p >= 0 : Σ_e c_e p_e = 1 } used by the MLU
// decomposition (eq. 14). The KKT conditions give p_e = max(0, y_e − λ c_e)
// for the λ solving f(λ) = Σ_e c_e max(0, y_e − λ c_e) = 1; f is
// continuous, piecewise-linear and strictly decreasing wherever positive,
// so bisection converges.
func projectWeightedSimplex(y, c []float64) {
	if len(y) != len(c) {
		panic("core: projection dimensions differ")
	}
	if len(y) == 0 {
		return
	}
	// Bracket the root. λ_hi such that f(λ_hi) <= 1: at
	// λ = max_i y_i/c_i every term is zero, so f = 0 <= 1.
	lo := math.Inf(-1)
	hi := math.Inf(1)
	for i := range y {
		if math.IsNaN(y[i]) || math.IsInf(y[i], 0) {
			panic(fmt.Sprintf("core: non-finite price %v to project at %d", y[i], i))
		}
		r := y[i] / c[i]
		if math.IsInf(lo, -1) || r < lo {
			lo = r
		}
		if math.IsInf(hi, 1) || r > hi {
			hi = r
		}
	}
	// Push lo down until f(lo) >= 1. A huge y can overflow the bracket
	// to -Inf (or NaN); the search stops there, and bisection below is
	// bounded either way.
	span := hi - lo
	if span <= 0 {
		span = math.Abs(hi) + 1
	}
	for lo > math.Inf(-1) && simplexMass(y, c, lo) < 1 {
		lo -= span
		span *= 2
	}
	// Bisect to the fixed point, at most 200 rounds. Once the midpoint
	// rounds onto an endpoint no later round can move λ: a round either
	// leaves (lo, hi) alone or sets both to mid, and in both cases
	// (lo+hi)/2 is mid again — so the λ computed below is the one 200
	// rounds would reach, in under 60.
	for iter := 0; iter < 200; iter++ {
		mid := (lo + hi) / 2
		if mid == lo || mid == hi {
			break
		}
		if simplexMass(y, c, mid) > 1 {
			lo = mid
		} else {
			hi = mid
		}
	}
	lambda := (lo + hi) / 2
	sum := 0.0
	for i := range y {
		y[i] -= lambda * c[i]
		if y[i] < 0 {
			y[i] = 0
		}
		sum += c[i] * y[i]
	}
	// Exact renormalization to absorb bisection residue.
	if sum > 0 {
		inv := 1 / sum
		for i := range y {
			y[i] *= inv
		}
	}
}

// simplexMass is f(λ) = Σ_e c_e max(0, y_e − λ c_e).
func simplexMass(y, c []float64, lambda float64) float64 {
	sum := 0.0
	for i := range y {
		v := y[i] - lambda*c[i]
		if v > 0 {
			sum += c[i] * v
		}
	}
	return sum
}
