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
// so bisection converges. Every c_e must be finite and positive.
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
	lo, hi = settleSimplex(y, c, lo, hi)
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

// settleSimplex returns where bisectSimplex from [lo, hi] stops (DESIGN §17).
func settleSimplex(y, c []float64, lo, hi float64) (float64, float64) {
	if !(math.Abs(lo) <= 0x1p1022 && math.Abs(hi) <= 0x1p1022) { // a midpoint could overflow
		return bisectSimplex(y, c, lo, hi, lo, hi)
	}
	// f is convex and piecewise linear, so Newton from lo rises to the root.
	x, s, active := lo, 0.0, -1
	for {
		f, k := 0.0, 0
		s = 0
		for i := range y {
			if v := y[i] - x*c[i]; v > 0 {
				f, s, k = f+c[i]*v, s+c[i]*c[i], k+1
			}
		}
		next := x + (f-1)/s
		if k == active || !(next > x) {
			break
		}
		x, active = next, k
	}
	// About the guess's error; if it is lo, the pair may be lo and lo⁺.
	w := float64(len(y))/s*0x1p-56 + math.Abs(x)*0x1p-51
	if x <= lo {
		x = math.Nextafter(lo, hi)
	}
	a, b := lo, hi
	for ; a < x && x < b; w *= 2 {
		if simplexMass(y, c, x) > 1 {
			a, x = x, x+w
		} else {
			b, x = x, x-w
		}
	}
	below, above := bisectSimplex(y, c, a, b, a, b)
	// An adjacent pair, and [lo, hi] within 2^190 of its gaps: 200 rounds reach it.
	if mid := (below + above) / 2; (mid == below || mid == above) && hi-lo <= 0x1p190*(above-below) {
		return below, above
	}
	return bisectSimplex(y, c, lo, hi, below, above)
}

// bisectSimplex halves [lo, hi] on f(mid) > 1 for 200 rounds or until (lo+hi)/2 stays put.
// f is monotone, so it is computed only between below (f > 1 or lo) and above (f <= 1 or hi).
func bisectSimplex(y, c []float64, lo, hi, below, above float64) (float64, float64) {
	for iter := 0; iter < 200; iter++ {
		mid := (lo + hi) / 2
		if mid == lo || mid == hi {
			break
		}
		if mid <= below || mid < above && simplexMass(y, c, mid) > 1 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, hi
}

// simplexMass is f(λ) = Σ_e c_e max(0, y_e − λ c_e).
func simplexMass(y, c []float64, lambda float64) float64 {
	c = c[:len(y)]
	sum := 0.0
	for i := range y {
		v := y[i] - lambda*c[i]
		if v > 0 {
			sum += c[i] * v
		}
	}
	return sum
}
