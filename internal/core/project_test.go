package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
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

// TestProjectionEndsOnEveryInput runs the projection under a deadline on
// inputs a huge or non-finite step produces: a non-finite entry panics
// with a message, and finite ones, however large, return.
func TestProjectionEndsOnEveryInput(t *testing.T) {
	const huge = math.MaxFloat64
	cases := []struct {
		name   string
		y, c   []float64
		panics bool
	}{
		{"NaN first", []float64{math.NaN(), 1}, []float64{1, 1}, true},
		{"NaN", []float64{1, math.NaN()}, []float64{1, 1}, true},
		{"+Inf", []float64{math.Inf(1), 1}, []float64{1, 1}, true},
		{"-Inf", []float64{1, math.Inf(-1)}, []float64{2, 1}, true},
		{"spread overflows", []float64{huge, -huge}, []float64{1, 1}, false},
		{"ratio overflows", []float64{huge, huge / 2}, []float64{1e-300, 1e-300}, false},
		{"one huge negative", []float64{-huge}, []float64{1e-300}, false},
	}
	for _, tc := range cases {
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			projectWeightedSimplex(append([]float64(nil), tc.y...), tc.c)
		}()
		select {
		case r := <-done:
			if (r != nil) != tc.panics {
				t.Errorf("%s: recovered %v, want a panic: %v", tc.name, r, tc.panics)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: projection still running after 10s", tc.name)
		}
	}
}

// TestProjectionRootAtLowerBound: when f(lo) is exactly 1 at the bottom
// of the bracket, the 200-round loop still ends on lo and the float
// after it, and (lo+lo⁺)/2 rounds to lo⁺ when lo is odd. A bracket
// search that collapsed to [lo, lo] would return lo instead.
func TestProjectionRootAtLowerBound(t *testing.T) {
	const a = 1<<52 + 1 // odd: (a + a⁺)/2 rounds to a⁺ = a+1
	y, c := []float64{a, a + 1}, []float64{1, 1}
	if f := simplexMass(y, c, a); f != 1 {
		t.Fatalf("f(lo) = %v, want exactly 1", f)
	}
	got, want := projected(y, c), refProjectWeightedSimplex(y, c)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("projection %v, reference %v", got, want)
		}
	}
	if want[1] != 0 {
		t.Fatalf("reference %v: λ should be lo⁺, leaving nothing", want)
	}
}

// projectionInput encodes y and c as the fuzz target reads them: one
// little-endian (y_i, c_i) pair of float64 bits per 16 bytes.
func projectionInput(y, c []float64) []byte {
	var b []byte
	for i := range y {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(y[i]))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c[i]))
	}
	return b
}

// FuzzProjectionMatchesReference checks projectWeightedSimplex against
// the always-200-round refProjectWeightedSimplex, bit for bit, on raw
// (y, c) vectors: finite prices, finite positive capacities (as
// topology guarantees), and ratios y/c that do not overflow, on which
// the reference ends.
func FuzzProjectionMatchesReference(f *testing.F) {
	third := 1.0 / 3
	seeds := [][2][]float64{
		{{0.1, 0.1, 0.1}, {2, 3, 5}},               // on the simplex
		{{0.1 + 1e-9, 0.1 - 1e-9, 0.1}, {2, 3, 5}}, // λ* ≈ 0
		{{third, third, third + 1e-9}, {1, 1, 1}},  // λ* ≈ 0, inexact
		{{7}, {3}},                                                 // n = 1
		{{1, 2, 3, 4}, {1, 2, 3, 4}},                               // equal ratios
		{{1<<52 + 1, 1<<52 + 2}, {1, 1}},                           // f(lo) == 1
		{{0, 0.5, 0x1p-151}, {1, 1, 0x1p150}},                      // f(0) == 1: 200 rounds never settle
		{{1e200, -1e200, 1}, {1, 1, 1}},                            // wide bracket
		{{3.6e-12, 3.5e-12, 0, 3.4e-12}, {1e10, 1e10, 1e10, 1e13}}, // swarm scale
	}
	for _, s := range seeds {
		f.Add(projectionInput(s[0], s[1]))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 16
		if n == 0 || n > 64 {
			return
		}
		y, c := make([]float64, n), make([]float64, n)
		for i := range y {
			y[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:]))
			c[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:]))
			if r := y[i] / c[i]; !(c[i] > 0 && c[i] <= math.MaxFloat64) || math.IsNaN(r) || math.IsInf(r, 0) {
				return
			}
		}
		got, want := projected(y, c), refProjectWeightedSimplex(y, c)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("y %v c %v: projection %v, reference %v", y, c, got, want)
			}
		}
	})
}
