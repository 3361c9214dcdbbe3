package core

import (
	"fmt"
	"math"

	"p4p/internal/lp"
	"p4p/internal/topology"
)

// Session holds one application session's aggregated per-PID capacities,
// the T^k of Section 4: Up[i] is the total uploading (supply) capacity
// u_i of the session's PID-i peers toward other PIDs, Down[i] the total
// downloading (demand) capacity d_i, both in bits/sec.
type Session struct {
	PIDs []topology.PID
	Up   []float64
	Down []float64
}

func (s *Session) validate() error {
	if len(s.Up) != len(s.PIDs) || len(s.Down) != len(s.PIDs) {
		return fmt.Errorf("core: session has %d PIDs, %d ups, %d downs", len(s.PIDs), len(s.Up), len(s.Down))
	}
	for i, u := range s.Up {
		d := s.Down[i]
		if math.IsNaN(u) || math.IsNaN(d) || math.IsInf(u, 0) || math.IsInf(d, 0) {
			return fmt.Errorf("core: non-finite capacity at PID index %d", i)
		}
		if u < 0 || d < 0 {
			return fmt.Errorf("core: negative capacity at PID index %d", i)
		}
	}
	return nil
}

// MaxMatching computes OPT of eqs. (1)–(4): the maximum total inter-PID
// traffic the session can sustain, ignoring network efficiency. It is a
// transportation max-flow with every lane i→j, i ≠ j, open, so by
// max-flow min-cut the only finite cuts sever every upload, every
// download, or, for one PID k, every other PID's upload and download.
// OPT is the least of them: min(ΣU, ΣD, min_k Σ_{i≠k} (U_i + D_i)).
func MaxMatching(s Session) (float64, error) {
	if err := s.validate(); err != nil {
		return 0, err
	}
	var up, down float64
	for i := range s.Up {
		up += s.Up[i]
		down += s.Down[i]
	}
	opt := math.Min(up, down)
	for k := range s.Up {
		cut := 0.0
		for i := range s.Up {
			if i != k {
				cut += s.Up[i] + s.Down[i]
			}
		}
		opt = math.Min(opt, cut)
	}
	return opt, nil
}

// MatchTraffic solves the application program of eqs. (5)–(6): minimize
// Σ p_ij t_ij subject to the capacity constraints (2)–(3), shipping at
// least beta*OPT total (6). view supplies p_ij. Returns the traffic
// matrix indexed like session PIDs. The robustness constraint (7) is
// View.Weights' concave transform, which selection applies.
func MatchTraffic(view *View, s Session, beta float64) ([][]float64, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	if beta < 0 || beta > 1 {
		return nil, fmt.Errorf("core: beta %v out of [0, 1]", beta)
	}
	n := len(s.PIDs)
	if n == 0 {
		return nil, nil
	}
	cols := make([]int, n)
	for a, pid := range s.PIDs {
		c, ok := view.Index(pid)
		if !ok {
			return nil, fmt.Errorf("core: session PID %d not in view", pid)
		}
		cols[a] = c
	}
	// Work in normalized bandwidth units so LP coefficients are O(1):
	// capacities are O(1e9) bits/sec, far outside the solver's comfort.
	scale := 1.0
	for i := range s.Up {
		scale = math.Max(scale, math.Max(s.Up[i], s.Down[i]))
	}
	s = Session{PIDs: s.PIDs, Up: scaled(s.Up, 1/scale), Down: scaled(s.Down, 1/scale)}
	opt, err := MaxMatching(s)
	if err != nil {
		return nil, err
	}
	idx := func(i, j int) int { return i*n + j }
	p := &lp.Problem{NumVars: n * n, Maximize: false}
	p.Objective = make([]float64, n*n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			d := view.D[cols[a]][cols[b]]
			if math.IsInf(d, 1) {
				d = 1e12 // unreachable lanes are effectively forbidden
			}
			p.Objective[idx(a, b)] = d
		}
	}
	p.Constraints = sessionRows(s, n*n, 0, beta*opt)
	sol, err := lp.Solve(p)
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("core: matching program %v", sol.Status)
	}
	t := make([][]float64, n)
	for a := 0; a < n; a++ {
		t[a] = make([]float64, n)
		for b := 0; b < n; b++ {
			t[a][b] = sol.X[idx(a, b)] * scale
		}
	}
	return t, nil
}

// sessionRows returns the session feasibility set T^k as LP rows over
// nvar variables, with the session's lane t_ij at off + i*n + j: the
// diagonal pinned to 0, upload (2) and download (3) capacity per PID, and
// the efficiency floor (6) Σ t_ij >= floor.
func sessionRows(s Session, nvar, off int, floor float64) []lp.Constraint {
	n := len(s.PIDs)
	idx := func(i, j int) int { return off + i*n + j }
	rows := make([]lp.Constraint, 0, 3*n+1)
	for a := 0; a < n; a++ {
		row := make([]float64, nvar)
		row[idx(a, a)] = 1
		rows = append(rows, lp.Constraint{Coeffs: row, Rel: lp.EQ, RHS: 0})
	}
	for a := 0; a < n; a++ {
		row := make([]float64, nvar)
		for b := 0; b < n; b++ {
			if b != a {
				row[idx(a, b)] = 1
			}
		}
		rows = append(rows, lp.Constraint{Coeffs: row, Rel: lp.LE, RHS: s.Up[a]})
	}
	for a := 0; a < n; a++ {
		row := make([]float64, nvar)
		for b := 0; b < n; b++ {
			if b != a {
				row[idx(b, a)] = 1
			}
		}
		rows = append(rows, lp.Constraint{Coeffs: row, Rel: lp.LE, RHS: s.Down[a]})
	}
	all := make([]float64, nvar)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b {
				all[idx(a, b)] = 1
			}
		}
	}
	return append(rows, lp.Constraint{Coeffs: all, Rel: lp.GE, RHS: floor})
}

// scaled returns v multiplied elementwise by f.
func scaled(v []float64, f float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * f
	}
	return out
}

// LinkLoads converts session traffic matrices into per-link loads
// (bits/sec per LinkID) under the given routing; loads accumulates.
func LinkLoads(r *topology.Routing, pids []topology.PID, t [][]float64, loads []float64) {
	for a, i := range pids {
		for b, j := range pids {
			if a == b || t[a][b] == 0 {
				continue
			}
			for _, e := range r.Path(i, j) {
				loads[e] += t[a][b]
			}
		}
	}
}
