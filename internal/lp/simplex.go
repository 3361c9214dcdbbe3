// Package lp implements a small, dependency-free linear-programming
// solver: a dense-tableau two-phase primal simplex with Bland's
// anti-cycling rule.
//
// The P4P reproduction uses it for the β-constrained network-efficiency
// program of the paper's Section 4 (eqs. 5–7) and for the MLU-optimal
// traffic-engineering baseline against which the dual decomposition of
// Section 5 is validated. Tests also pose the matching program (eqs. 1–4)
// to it as the oracle of core.MaxMatching's closed form. Problems at PID granularity
// are tiny (tens of variables), so a dense tableau is both simple and
// fast enough.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Relation is the sense of a linear constraint.
type Relation int

const (
	// LE constrains coeffs·x <= rhs.
	LE Relation = iota
	// GE constrains coeffs·x >= rhs.
	GE
	// EQ constrains coeffs·x == rhs.
	EQ
)

func (r Relation) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	default:
		return fmt.Sprintf("Relation(%d)", int(r))
	}
}

// Constraint is one row of the program. Coeffs is indexed by variable;
// missing trailing coefficients are treated as zero.
type Constraint struct {
	Coeffs []float64
	Rel    Relation
	RHS    float64
}

// Problem is a linear program over n non-negative variables.
type Problem struct {
	NumVars     int
	Objective   []float64 // length NumVars; missing entries are zero
	Maximize    bool
	Constraints []Constraint
}

// Status reports the outcome of Solve.
type Status int

const (
	// Optimal means an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible means the constraints admit no solution.
	Infeasible
	// Unbounded means the objective is unbounded over the feasible set.
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Solution holds the result of Solve.
type Solution struct {
	Status    Status
	X         []float64 // variable values (valid only when Optimal)
	Objective float64   // objective value in the problem's own sense
}

// ErrBadProblem reports a structurally invalid problem.
var ErrBadProblem = errors.New("lp: malformed problem")

const eps = 1e-9

// Solve runs two-phase simplex and returns the solution. The error is
// non-nil only for malformed input; Infeasible and Unbounded are reported
// via Solution.Status.
func Solve(p *Problem) (*Solution, error) {
	if p.NumVars <= 0 {
		return nil, fmt.Errorf("%w: NumVars = %d", ErrBadProblem, p.NumVars)
	}
	if len(p.Objective) > p.NumVars {
		return nil, fmt.Errorf("%w: objective has %d coefficients for %d variables", ErrBadProblem, len(p.Objective), p.NumVars)
	}
	for i, c := range p.Constraints {
		if len(c.Coeffs) > p.NumVars {
			return nil, fmt.Errorf("%w: constraint %d has %d coefficients for %d variables", ErrBadProblem, i, len(c.Coeffs), p.NumVars)
		}
	}

	t := newTableau(p)
	if t.needPhase1 {
		if !t.phase1() {
			return &Solution{Status: Infeasible}, nil
		}
	}
	if !t.phase2() {
		return &Solution{Status: Unbounded}, nil
	}
	x := t.extract()
	obj := 0.0
	for i := 0; i < p.NumVars && i < len(p.Objective); i++ {
		obj += p.Objective[i] * x[i]
	}
	return &Solution{Status: Optimal, X: x, Objective: obj}, nil
}

// tableau is a dense simplex tableau in standard maximization form with
// slack, surplus, and artificial columns appended after the structural
// variables.
type tableau struct {
	p          *Problem
	m, n       int // rows (constraints) and total columns (excluding RHS)
	a          [][]float64
	b          []float64
	cost       []float64 // phase-2 objective (maximize) per column
	basis      []int     // basis[i] = column basic in row i
	artStart   int       // first artificial column index
	needPhase1 bool
	feasTol    float64 // feasibility tolerance scaled to RHS magnitude
}

func newTableau(p *Problem) *tableau {
	m := len(p.Constraints)
	// Count slack/surplus and artificial columns.
	slack := 0
	art := 0
	for _, c := range p.Constraints {
		rhs := c.RHS
		rel := c.Rel
		if rhs < 0 { // normalize to non-negative RHS
			rel = flip(rel)
		}
		switch rel {
		case LE:
			slack++
		case GE:
			slack++
			art++
		case EQ:
			art++
		}
	}
	n := p.NumVars + slack + art
	t := &tableau{
		p:        p,
		m:        m,
		n:        n,
		a:        make([][]float64, m),
		b:        make([]float64, m),
		cost:     make([]float64, n),
		basis:    make([]int, m),
		artStart: p.NumVars + slack,
	}
	// Scale the objective so its largest coefficient has magnitude one:
	// pivoting tolerances are absolute, and P4P price vectors can be
	// O(1e-10) while capacities are O(1e10). The caller-facing objective
	// value is recomputed from the original coefficients in Solve, so
	// internal scaling never leaks out.
	objScale := 0.0
	for _, v := range p.Objective {
		if math.Abs(v) > objScale {
			objScale = math.Abs(v)
		}
	}
	if objScale == 0 {
		objScale = 1
	}
	for j := 0; j < p.NumVars && j < len(p.Objective); j++ {
		if p.Maximize {
			t.cost[j] = p.Objective[j] / objScale
		} else {
			t.cost[j] = -p.Objective[j] / objScale
		}
	}
	sj := p.NumVars
	aj := t.artStart
	for i, c := range p.Constraints {
		row := make([]float64, n)
		for j := 0; j < len(c.Coeffs); j++ {
			row[j] = c.Coeffs[j]
		}
		rhs := c.RHS
		rel := c.Rel
		if rhs < 0 {
			for j := range row {
				row[j] = -row[j]
			}
			rhs = -rhs
			rel = flip(rel)
		}
		switch rel {
		case LE:
			row[sj] = 1
			t.basis[i] = sj
			sj++
		case GE:
			row[sj] = -1
			sj++
			row[aj] = 1
			t.basis[i] = aj
			aj++
			t.needPhase1 = true
		case EQ:
			row[aj] = 1
			t.basis[i] = aj
			aj++
			t.needPhase1 = true
		}
		t.a[i] = row
		t.b[i] = rhs
	}
	// Feasibility tolerance scales with the data so that 10^9-scale
	// capacities do not trip absolute-epsilon checks.
	maxB := 1.0
	for _, v := range t.b {
		if math.Abs(v) > maxB {
			maxB = math.Abs(v)
		}
	}
	t.feasTol = 1e-7 * maxB
	return t
}

func flip(r Relation) Relation {
	switch r {
	case LE:
		return GE
	case GE:
		return LE
	default:
		return EQ
	}
}

// phase1 drives the artificial variables to zero. Reports feasibility.
func (t *tableau) phase1() bool {
	// Phase-1 objective: maximize -(sum of artificials).
	c1 := make([]float64, t.n)
	for j := t.artStart; j < t.n; j++ {
		c1[j] = -1
	}
	if !t.iterate(c1) {
		// Phase 1 is bounded by construction (objective <= 0), so a
		// failure to converge cannot be unboundedness; treat as
		// infeasible defensively.
		return false
	}
	// Feasible iff all artificials are zero (to within the scaled
	// tolerance).
	for i, col := range t.basis {
		if col >= t.artStart && t.b[i] > t.feasTol {
			return false
		}
	}
	// Pivot any degenerate artificial out of the basis if possible.
	for i, col := range t.basis {
		if col < t.artStart {
			continue
		}
		pivoted := false
		for j := 0; j < t.artStart; j++ {
			if math.Abs(t.a[i][j]) > eps {
				t.pivot(i, j)
				pivoted = true
				break
			}
		}
		if !pivoted {
			// Redundant row: zero it so it can never constrain.
			for j := range t.a[i] {
				t.a[i][j] = 0
			}
			t.b[i] = 0
		}
	}
	return true
}

// phase2 optimizes the real objective from a feasible basis. Reports
// false on unboundedness.
func (t *tableau) phase2() bool {
	// Forbid artificial columns from re-entering.
	c2 := make([]float64, t.n)
	copy(c2, t.cost)
	for j := t.artStart; j < t.n; j++ {
		c2[j] = math.Inf(-1)
	}
	return t.iterate(c2)
}

// iterate runs simplex pivots with Bland's rule until optimality (true)
// or unboundedness (false) for the given maximization costs.
func (t *tableau) iterate(c []float64) bool {
	// Reduced costs are computed directly: rc_j = c_j - sum_i y_i a_ij
	// where y_i = c_basis[i] after eliminating basic columns. We keep it
	// simple by maintaining a working objective row.
	z := make([]float64, t.n)
	copy(z, c)
	for j := t.artStart; j < t.n; j++ {
		if math.IsInf(z[j], -1) {
			z[j] = -1e30 // large negative surrogate keeps arithmetic finite
		}
	}
	// Eliminate basic columns from the objective row.
	for i, col := range t.basis {
		if z[col] == 0 {
			continue
		}
		f := z[col]
		for j := 0; j < t.n; j++ {
			z[j] -= f * t.a[i][j]
		}
	}
	for iter := 0; ; iter++ {
		if iter > 200000 {
			// Bland's rule guarantees termination; this is a defensive
			// bound against numerical stalls.
			return true
		}
		// Entering column: Bland — smallest index with positive reduced cost.
		enter := -1
		for j := 0; j < t.n; j++ {
			if z[j] > eps {
				enter = j
				break
			}
		}
		if enter < 0 {
			return true // optimal
		}
		// Leaving row: min ratio, ties by smallest basis column (Bland).
		leave := -1
		best := math.Inf(1)
		for i := 0; i < t.m; i++ {
			if t.a[i][enter] > eps {
				ratio := t.b[i] / t.a[i][enter]
				if ratio < best-eps || (math.Abs(ratio-best) <= eps && (leave < 0 || t.basis[i] < t.basis[leave])) {
					best = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			return false // unbounded
		}
		t.pivot(leave, enter)
		// Update the objective row.
		f := z[enter]
		if f != 0 {
			for j := 0; j < t.n; j++ {
				z[j] -= f * t.a[leave][j]
			}
			// Clean tiny residue on the entering column.
			z[enter] = 0
		}
	}
}

// pivot makes column enter basic in row leave.
func (t *tableau) pivot(leave, enter int) {
	p := t.a[leave][enter]
	inv := 1 / p
	for j := 0; j < t.n; j++ {
		t.a[leave][j] *= inv
	}
	t.b[leave] *= inv
	for i := 0; i < t.m; i++ {
		if i == leave {
			continue
		}
		f := t.a[i][enter]
		if f == 0 {
			continue
		}
		for j := 0; j < t.n; j++ {
			t.a[i][j] -= f * t.a[leave][j]
		}
		t.b[i] -= f * t.b[leave]
		t.a[i][enter] = 0
	}
	t.basis[leave] = enter
}

// extract reads the structural variable values off the basis.
func (t *tableau) extract() []float64 {
	x := make([]float64, t.p.NumVars)
	for i, col := range t.basis {
		if col < t.p.NumVars {
			v := t.b[i]
			if v < 0 && v > -eps {
				v = 0
			}
			x[col] = v
		}
	}
	return x
}
