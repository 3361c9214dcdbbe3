package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// projected returns the projection of y, leaving y itself alone.
func projected(y, c []float64) []float64 {
	out := append([]float64(nil), y...)
	projectWeightedSimplex(out, c)
	return out
}

func onSimplex(p, c []float64) bool {
	sum := 0.0
	for i := range p {
		if p[i] < 0 {
			return false
		}
		sum += c[i] * p[i]
	}
	return math.Abs(sum-1) < 1e-6
}

func TestProjectionLandsOnSimplex(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	prop := func() bool {
		n := 1 + rng.Intn(20)
		y := make([]float64, n)
		c := make([]float64, n)
		for i := range y {
			y[i] = rng.NormFloat64() * 10
			c[i] = 0.5 + rng.Float64()*10
		}
		return onSimplex(projected(y, c), c)
	}
	if err := quick.Check(func() bool { return prop() }, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestProjectionIdempotentOnSimplexPoints(t *testing.T) {
	// A point already on the simplex must map (near) to itself.
	c := []float64{2, 3, 5}
	p := []float64{0.1, 0.1, 0.1} // Σ c p = 0.2+0.3+0.5 = 1
	got := projected(p, c)
	for i := range p {
		if math.Abs(got[i]-p[i]) > 1e-6 {
			t.Fatalf("projection moved simplex point: %v -> %v", p, got)
		}
	}
}

func TestProjectionIsClosestPoint(t *testing.T) {
	// Compare against random feasible points: none may be closer to y.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(5)
		y := make([]float64, n)
		c := make([]float64, n)
		for i := range y {
			y[i] = rng.NormFloat64()
			c[i] = 0.5 + rng.Float64()*3
		}
		proj := projected(y, c)
		dProj := dist2(proj, y)
		for probe := 0; probe < 100; probe++ {
			q := randomSimplexPoint(rng, c)
			if dist2(q, y) < dProj-1e-9 {
				t.Fatalf("trial %d: found feasible point closer than projection", trial)
			}
		}
	}
}

func dist2(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// randomSimplexPoint samples a point with p >= 0 and Σ c p = 1.
func randomSimplexPoint(rng *rand.Rand, c []float64) []float64 {
	n := len(c)
	p := make([]float64, n)
	sum := 0.0
	for i := range p {
		p[i] = rng.Float64()
		sum += c[i] * p[i]
	}
	for i := range p {
		p[i] /= sum
	}
	return p
}

func TestProjectionEmptyAndMismatch(t *testing.T) {
	projectWeightedSimplex(nil, nil) // nothing to project: must not panic
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	projectWeightedSimplex([]float64{1}, []float64{1, 2})
}
