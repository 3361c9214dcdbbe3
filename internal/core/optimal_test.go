package core

import (
	"math"
	"math/rand"
	"testing"

	"p4p/internal/lp"
	"p4p/internal/topology"
)

func TestMaxMatchingTwoPIDs(t *testing.T) {
	s := Session{
		PIDs: []topology.PID{0, 1},
		Up:   []float64{10, 5},
		Down: []float64{5, 10},
	}
	opt, err := MaxMatching(s)
	if err != nil {
		t.Fatal(err)
	}
	// t01 <= min(10,10)=10 and t10 <= min(5,5)=5 -> 15.
	if math.Abs(opt-15) > 1e-6 {
		t.Fatalf("OPT = %v, want 15", opt)
	}
}

func TestMaxMatchingExcludesDiagonal(t *testing.T) {
	// One PID alone can never match.
	s := Session{PIDs: []topology.PID{0}, Up: []float64{100}, Down: []float64{100}}
	opt, err := MaxMatching(s)
	if err != nil {
		t.Fatal(err)
	}
	if opt != 0 {
		t.Fatalf("single-PID OPT = %v, want 0", opt)
	}
}

func TestMaxMatchingEmptyAndInvalid(t *testing.T) {
	if opt, err := MaxMatching(Session{}); err != nil || opt != 0 {
		t.Fatalf("empty session: %v, %v", opt, err)
	}
	if _, err := MaxMatching(Session{PIDs: []topology.PID{0}, Up: []float64{1, 2}, Down: []float64{1}}); err == nil {
		t.Fatal("expected dimension error")
	}
	if _, err := MaxMatching(Session{PIDs: []topology.PID{0}, Up: []float64{-1}, Down: []float64{1}}); err == nil {
		t.Fatal("expected negativity error")
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := MaxMatching(Session{PIDs: []topology.PID{0, 1}, Up: []float64{1, bad}, Down: []float64{1, 1}}); err == nil {
			t.Fatalf("expected non-finite error for upload %v", bad)
		}
		if _, err := MaxMatching(Session{PIDs: []topology.PID{0, 1}, Up: []float64{1, 1}, Down: []float64{bad, 1}}); err == nil {
			t.Fatalf("expected non-finite error for download %v", bad)
		}
	}
}

// matchingLP poses eqs. (1)–(4) to the simplex solver as written:
// maximize Σ t_ij subject to row sums <= U, column sums <= D and
// t_ii = 0.
func matchingLP(t *testing.T, s Session) float64 {
	n := len(s.PIDs)
	if n == 0 {
		return 0
	}
	p := &lp.Problem{NumVars: n * n, Maximize: true, Objective: make([]float64, n*n)}
	for i := range p.Objective {
		p.Objective[i] = 1
	}
	for i := 0; i < n; i++ {
		diag, up, down := make([]float64, n*n), make([]float64, n*n), make([]float64, n*n)
		diag[i*n+i] = 1
		for j := 0; j < n; j++ {
			up[i*n+j] = 1
			down[j*n+i] = 1
		}
		p.Constraints = append(p.Constraints,
			lp.Constraint{Coeffs: diag, Rel: lp.EQ, RHS: 0},
			lp.Constraint{Coeffs: up, Rel: lp.LE, RHS: s.Up[i]},
			lp.Constraint{Coeffs: down, Rel: lp.LE, RHS: s.Down[i]})
	}
	sol, err := lp.Solve(p)
	if err != nil || sol.Status != lp.Optimal {
		t.Fatalf("matching LP: %v, %v", sol, err)
	}
	return sol.Objective
}

// FuzzMaxMatchingMatchesLP checks MaxMatching's closed form against the
// matching LP on sessions of up to six PIDs: caps holds (upload,
// download) byte pairs, scaled by 10^(decade%13) bits/sec. The seeds
// make each kind of cut bind: ΣU, ΣD and one PID's (U_0 = D_0 = 10
// cannot trade with itself, so OPT is 2).
func FuzzMaxMatchingMatchesLP(f *testing.F) {
	f.Add([]byte{1, 5, 1, 5}, uint8(0))
	f.Add([]byte{5, 1, 5, 1}, uint8(9))
	f.Add([]byte{10, 10, 0, 1, 0, 1}, uint8(0))
	f.Add([]byte{200, 7}, uint8(3))
	f.Add([]byte{0, 0, 0, 0, 0, 0}, uint8(6))
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, caps []byte, decade uint8) {
		n := min(len(caps)/2, 6)
		unit := math.Pow(10, float64(decade%13))
		s := Session{PIDs: make([]topology.PID, n), Up: make([]float64, n), Down: make([]float64, n)}
		for i := range s.PIDs {
			s.PIDs[i] = topology.PID(i)
			s.Up[i] = float64(caps[2*i]) * unit
			s.Down[i] = float64(caps[2*i+1]) * unit
		}
		got, err := MaxMatching(s)
		if err != nil {
			t.Fatal(err)
		}
		if want := matchingLP(t, s); math.Abs(got-want) > 1e-9*math.Abs(want) {
			t.Fatalf("MaxMatching(U=%v, D=%v) = %v, LP optimum %v", s.Up, s.Down, got, want)
		}
	})
}

func TestMatchTrafficShipsBetaOPT(t *testing.T) {
	g, r := fourLine()
	pids := g.AggregationPIDs()
	view := HopCountView(r, pids)
	s := Session{
		PIDs: pids,
		Up:   []float64{10, 10, 10, 10},
		Down: []float64{10, 10, 10, 10},
	}
	opt, _ := MaxMatching(s)
	for _, beta := range []float64{1.0, 0.8, 0.5} {
		tm, err := MatchTraffic(view, s, beta)
		if err != nil {
			t.Fatalf("beta=%v: %v", beta, err)
		}
		total := 0.0
		for a := range tm {
			for b := range tm[a] {
				if a == b && tm[a][b] != 0 {
					t.Fatal("diagonal traffic")
				}
				if tm[a][b] < -1e-9 {
					t.Fatal("negative traffic")
				}
				total += tm[a][b]
			}
		}
		if total < beta*opt-1e-6 {
			t.Fatalf("beta=%v: shipped %v < %v", beta, total, beta*opt)
		}
		// Capacity constraints.
		for a := range tm {
			rowSum, colSum := 0.0, 0.0
			for b := range tm {
				rowSum += tm[a][b]
				colSum += tm[b][a]
			}
			if rowSum > s.Up[a]+1e-6 || colSum > s.Down[a]+1e-6 {
				t.Fatalf("beta=%v: capacity violated at PID %d", beta, a)
			}
		}
	}
}

func TestMatchTrafficPrefersCheapLanes(t *testing.T) {
	// With beta < 1 the optimizer should drop the expensive long lanes
	// and keep adjacent ones.
	g, r := fourLine()
	pids := g.AggregationPIDs()
	view := HopCountView(r, pids)
	s := Session{
		PIDs: pids,
		Up:   []float64{10, 10, 10, 10},
		Down: []float64{10, 10, 10, 10},
	}
	tm, err := MatchTraffic(view, s, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	costHalf := view.Total(tm)
	tmFull, err := MatchTraffic(view, s, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	costFull := view.Total(tmFull)
	if costHalf >= costFull {
		t.Fatalf("relaxing beta did not reduce cost: %v vs %v", costHalf, costFull)
	}
	// The extreme lane 0->3 (distance 3) should carry nothing at beta=0.5.
	if tm[0][3] > 1e-6 {
		t.Fatalf("expensive lane used at beta=0.5: %v", tm[0][3])
	}
}

func TestMatchTrafficErrors(t *testing.T) {
	g, r := fourLine()
	pids := g.AggregationPIDs()
	view := HopCountView(r, pids)
	s := Session{PIDs: pids, Up: []float64{1, 1, 1, 1}, Down: []float64{1, 1, 1, 1}}
	if _, err := MatchTraffic(view, s, -0.1); err == nil {
		t.Fatal("expected beta range error")
	}
	if _, err := MatchTraffic(view, s, 1.1); err == nil {
		t.Fatal("expected beta range error")
	}
	alien := Session{PIDs: []topology.PID{99}, Up: []float64{1}, Down: []float64{1}}
	if _, err := MatchTraffic(view, alien, 1); err == nil {
		t.Fatal("expected unknown-PID error")
	}
	// An unknown PID after a known one must be refused too, not indexed.
	late := Session{PIDs: []topology.PID{pids[0], 99}, Up: []float64{1, 1}, Down: []float64{1, 1}}
	if _, err := MatchTraffic(view, late, 1); err == nil {
		t.Fatal("expected unknown-PID error for a later PID")
	}
	if tm, err := MatchTraffic(view, Session{}, 1); err != nil || tm != nil {
		t.Fatalf("empty session: %v, %v", tm, err)
	}
}

func TestLinkLoads(t *testing.T) {
	g, r := fourLine()
	pids := g.AggregationPIDs()
	tm := make([][]float64, 4)
	for i := range tm {
		tm[i] = make([]float64, 4)
	}
	tm[0][2] = 5 // traverses links 0->1 and 1->2
	loads := make([]float64, g.NumLinks())
	LinkLoads(r, pids, tm, loads)
	path := r.Path(0, 2)
	for _, e := range path {
		if loads[e] != 5 {
			t.Fatalf("load on path link %d = %v, want 5", e, loads[e])
		}
	}
	total := 0.0
	for _, v := range loads {
		total += v
	}
	if total != 10 {
		t.Fatalf("total load = %v, want 10 (2 hops x 5)", total)
	}
}

// optimalMLU solves the centralized program of Figure 4 / eqs. (8)–(9)
// jointly over all sessions with the LP solver: minimize α subject to
// every session's feasibility set T^k (capacity constraints plus a
// beta*OPT_k total-traffic floor) and b_e + Σ_k t^k_e <= α c_e on every
// link. It is the infeasible-in-practice benchmark that validates the
// decomposed engine (Proposition 1). Returns α and per-session traffic
// matrices.
func optimalMLU(t *testing.T, r *topology.Routing, background []float64, sessions []Session, beta float64) (float64, [][][]float64) {
	t.Helper()
	g := r.Graph()
	if len(background) != g.NumLinks() {
		t.Fatalf("background for %d links, graph has %d", len(background), g.NumLinks())
	}
	// Normalize bandwidth units to keep LP coefficients O(1); α is
	// scale-invariant, flows are rescaled on the way out.
	scale := 1.0
	for _, l := range g.Links() {
		scale = math.Max(scale, l.CapacityBps)
	}
	background = scaled(background, 1/scale)
	normalized := make([]Session, len(sessions))
	for k, s := range sessions {
		normalized[k] = Session{PIDs: s.PIDs, Up: scaled(s.Up, 1/scale), Down: scaled(s.Down, 1/scale)}
	}
	sessions = normalized
	// Variable layout: per-session lane variables, then α last.
	offsets := make([]int, len(sessions))
	nvar := 0
	for k, s := range sessions {
		offsets[k] = nvar
		nvar += len(s.PIDs) * len(s.PIDs)
	}
	alphaVar := nvar
	nvar++

	p := &lp.Problem{NumVars: nvar, Maximize: false}
	p.Objective = make([]float64, nvar)
	p.Objective[alphaVar] = 1

	for k, s := range sessions {
		opt, err := MaxMatching(s)
		if err != nil {
			t.Fatal(err)
		}
		p.Constraints = append(p.Constraints, sessionRows(s, nvar, offsets[k], beta*opt)...)
	}
	// Link utilization rows: b_e + Σ t^k_ij I_e(i,j) − α c_e <= 0.
	for e := 0; e < g.NumLinks(); e++ {
		row := make([]float64, nvar)
		touched := false
		for k, s := range sessions {
			n := len(s.PIDs)
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					if a == b {
						continue
					}
					if r.OnPath(topology.LinkID(e), s.PIDs[a], s.PIDs[b]) {
						row[offsets[k]+a*n+b] = 1
						touched = true
					}
				}
			}
		}
		if !touched && background[e] == 0 {
			continue
		}
		row[alphaVar] = -g.Link(topology.LinkID(e)).CapacityBps / scale
		p.Constraints = append(p.Constraints, lp.Constraint{Coeffs: row, Rel: lp.LE, RHS: -background[e]})
	}
	sol, err := lp.Solve(p)
	if err != nil || sol.Status != lp.Optimal {
		t.Fatalf("MLU LP: %v, %v", sol, err)
	}
	flows := make([][][]float64, len(sessions))
	for k, s := range sessions {
		n := len(s.PIDs)
		flows[k] = make([][]float64, n)
		for a := 0; a < n; a++ {
			flows[k][a] = make([]float64, n)
			for b := 0; b < n; b++ {
				flows[k][a][b] = sol.X[offsets[k]+a*n+b] * scale
			}
		}
	}
	return sol.X[alphaVar], flows
}

func TestOptimalMLUOnLine(t *testing.T) {
	g, r := fourLine()
	pids := g.AggregationPIDs()
	// One session: PID 0 uploads 1 Gbps, PID 3 downloads 1 Gbps. All
	// traffic must cross every link: optimal alpha = 1.0 at beta=1.
	s := Session{
		PIDs: pids,
		Up:   []float64{1e9, 0, 0, 0},
		Down: []float64{0, 0, 0, 1e9},
	}
	alpha, flows := optimalMLU(t, r, make([]float64, g.NumLinks()), []Session{s}, 1.0)
	if math.Abs(alpha-1.0) > 1e-6 {
		t.Fatalf("alpha = %v, want 1.0", alpha)
	}
	if math.Abs(flows[0][0][3]-1e9) > 1 {
		t.Fatalf("flow 0->3 = %v, want 1e9", flows[0][0][3])
	}
	// With beta=0.5 the LP halves the traffic: alpha = 0.5.
	alpha, _ = optimalMLU(t, r, make([]float64, g.NumLinks()), []Session{s}, 0.5)
	if math.Abs(alpha-0.5) > 1e-6 {
		t.Fatalf("alpha at beta=0.5 = %v, want 0.5", alpha)
	}
}

func TestOptimalMLUSpreadsAcrossPIDs(t *testing.T) {
	// Star-free choice: PID 0 can send to PID 1 (1 hop) or PID 3 (3
	// hops). The LP must prefer balanced low-utilization patterns.
	g, r := fourLine()
	pids := g.AggregationPIDs()
	s := Session{
		PIDs: pids,
		Up:   []float64{1e9, 0, 0, 0},
		Down: []float64{0, 1e9, 0, 1e9},
	}
	alpha, flows := optimalMLU(t, r, make([]float64, g.NumLinks()), []Session{s}, 1.0)
	// All upload fits on the first link either way: alpha = 1, but the
	// optimum must not push any avoidable traffic deep into the chain.
	if alpha > 1+1e-6 {
		t.Fatalf("alpha = %v, want <= 1", alpha)
	}
	if flows[0][0][1] < 1e9-1e3 {
		t.Fatalf("LP should satisfy demand at the near PID; got %v", flows[0][0][1])
	}
}

func TestOptimalMLUBackgroundCounts(t *testing.T) {
	g, r := fourLine()
	pids := g.AggregationPIDs()
	bg := make([]float64, g.NumLinks())
	bg[0] = 0.5e9
	s := Session{
		PIDs: pids,
		Up:   []float64{0.5e9, 0, 0, 0},
		Down: []float64{0, 0.5e9, 0, 0},
	}
	alpha, _ := optimalMLU(t, r, bg, []Session{s}, 1.0)
	// Link 0 carries 0.5 background + 0.5 P4P = full.
	if math.Abs(alpha-1.0) > 1e-6 {
		t.Fatalf("alpha = %v, want 1.0", alpha)
	}
}

// TestDecompositionConvergesToOptimal is the paper's Proposition 1 in
// action, run as experiment X2 runs it: iterating (application
// optimizes against prices) <-> (iTracker updates prices by projected
// super-gradient) drives the time-averaged traffic pattern's MLU to
// within 10% of the centralized LP optimum for every seeded session.
// X2's certificate must bracket that optimum: prices on the simplex
// Σ_e c_e p_e = 1 make g(p) = Σ_e p_e load_e(t*), the cost of the
// session's best response t*, a lower bound on it by weak duality, so
// max_k g(p_k) <= LP <= averaged MLU.
func TestDecompositionConvergesToOptimal(t *testing.T) {
	g := topology.Abilene()
	r := topology.ComputeRouting(g)
	pids := g.AggregationPIDs()
	bg := make([]float64, g.NumLinks())
	seeds := int64(20)
	if raceEnabled {
		seeds = 2
	}
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := Session{PIDs: pids}
		for range pids {
			s.Up = append(s.Up, (0.5+rng.Float64())*2e9)
			s.Down = append(s.Down, (0.5+rng.Float64())*2e9)
		}
		optAlpha, _ := optimalMLU(t, r, bg, []Session{s}, 1.0)
		if optAlpha <= 0 {
			t.Fatalf("seed %d: degenerate optimal alpha %v", seed, optAlpha)
		}
		e := NewEngine(g, r, Config{Objective: MinimizeMLU, StepSize: 0.05})
		avgLoads := make([]float64, g.NumLinks())
		loads := make([]float64, g.NumLinks())
		bound := 0.0
		for it := 1; it <= 200; it++ {
			view := e.Matrix(pids)
			tm, err := MatchTraffic(view, s, 1.0)
			if err != nil {
				t.Fatal(err)
			}
			// X2's g(p_k): with no background, Σ_e p_e load_e(t_k) is
			// the view's price of t_k.
			bound = math.Max(bound, view.Total(tm))
			clear(loads)
			LinkLoads(r, pids, tm, loads)
			// Primal averaging: the time-averaged pattern converges even
			// though each iterate is an extreme point.
			for i := range avgLoads {
				avgLoads[i] += (loads[i] - avgLoads[i]) / float64(it)
			}
			e.ObserveTraffic(loads)
			e.Update()
		}
		mlu := 0.0
		for i, l := range g.Links() {
			mlu = math.Max(mlu, avgLoads[i]/l.CapacityBps)
		}
		if tol := 1 + 1e-9; bound > optAlpha*tol || optAlpha > mlu*tol {
			t.Errorf("seed %d: bound %v, LP optimum %v, decomposed MLU %v, want them in that order", seed, bound, optAlpha, mlu)
		}
		if ratio := mlu / optAlpha; ratio > 1.10 {
			t.Errorf("seed %d: decomposed MLU %v is %v times the optimal %v, want <= 1.10", seed, mlu, ratio, optAlpha)
		}
	}
}

// TestBDPConvergesToOptimal is TestDecompositionConvergesToOptimal's
// loop under MinimizeBDP (eq. 15), at F9's step, with per-PID demand of
// 9–12 Gbps on Abilene's 10 Gbps links, so capacity binds. Eq. 15's dual
// at prices p ≥ 0 is g(p) = Σ_e (d_e + p_e) load_e(t*) − Σ_e p_e (c_e − b_e),
// t* the session's best response; by weak duality it is at most the LP
// optimum under the capacity rows. The averaged pattern must cost at
// most 5 % more bandwidth-distance than the best g, and load no link
// above 1.05 of its capacity. A capacity price too small for the link
// lengths it is added to leaves the loop at the uncapacitated optimum,
// overloaded.
func TestBDPConvergesToOptimal(t *testing.T) {
	g := topology.Abilene()
	r := topology.ComputeRouting(g)
	pids := g.AggregationPIDs()
	seeds := int64(20)
	if raceEnabled {
		seeds = 2
	}
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := Session{PIDs: pids}
		for range pids {
			s.Up = append(s.Up, (9+3*rng.Float64())*1e9)
			s.Down = append(s.Down, (9+3*rng.Float64())*1e9)
		}
		optCost := optimalBDP(t, r, s)
		e := NewEngine(g, r, Config{Objective: MinimizeBDP, StepSize: 0.2})
		avgLoads := make([]float64, g.NumLinks())
		loads := make([]float64, g.NumLinks())
		bound := math.Inf(-1)
		for it := 1; it <= 200; it++ {
			prices := e.Prices()
			view := e.Matrix(pids)
			tm, err := MatchTraffic(view, s, 1.0)
			if err != nil {
				t.Fatal(err)
			}
			// The view prices t at Σ_e (d_e + p_e) load_e; b_e is 0.
			dual := view.Total(tm)
			for i, l := range g.Links() {
				dual -= prices[i] * l.CapacityBps
			}
			bound = math.Max(bound, dual)
			clear(loads)
			LinkLoads(r, pids, tm, loads)
			for i := range avgLoads {
				avgLoads[i] += (loads[i] - avgLoads[i]) / float64(it)
			}
			e.ObserveTraffic(loads)
			e.Update()
		}
		cost, util := 0.0, 0.0
		for i, l := range g.Links() {
			cost += avgLoads[i] * l.DistanceKm
			util = math.Max(util, avgLoads[i]/l.CapacityBps)
		}
		if bound > optCost*(1+1e-9) {
			t.Errorf("seed %d: dual bound %.6g is above the LP optimum %.6g", seed, bound, optCost)
		}
		if ratio := cost / bound; ratio > 1.05 || util > 1.05 {
			t.Errorf("seed %d: decomposed cost %.4g is %.4f times the dual bound %.4g at averaged utilization %.4f, want <= 1.05 and <= 1.05",
				seed, cost, ratio, bound, util)
		}
	}
}

// optimalBDP is the centralized eq. 15 program: minimize Σ t_ij D_ij,
// D_ij the route length, over the session's feasibility set at β = 1,
// with every link's load at most its capacity. Bandwidth is in units of
// the largest capacity and length in units of the longest route, to
// keep the coefficients O(1).
func optimalBDP(t *testing.T, r *topology.Routing, s Session) float64 {
	g := r.Graph()
	n := len(s.PIDs)
	bw := 0.0
	for _, l := range g.Links() {
		bw = math.Max(bw, l.CapacityBps)
	}
	route := make([]float64, n*n)
	km := 0.0
	for a, i := range s.PIDs {
		for b, j := range s.PIDs {
			for _, e := range r.Path(i, j) {
				route[a*n+b] += g.Link(e).DistanceKm
			}
			km = math.Max(km, route[a*n+b])
		}
	}
	norm := Session{PIDs: s.PIDs, Up: scaled(s.Up, 1/bw), Down: scaled(s.Down, 1/bw)}
	opt, err := MaxMatching(norm)
	if err != nil {
		t.Fatal(err)
	}
	p := &lp.Problem{NumVars: n * n, Objective: scaled(route, 1/km), Constraints: sessionRows(norm, n*n, 0, opt)}
	for e := range g.NumLinks() {
		row := make([]float64, n*n)
		for a, i := range s.PIDs {
			for b, j := range s.PIDs {
				if a != b && r.OnPath(topology.LinkID(e), i, j) {
					row[a*n+b] = 1
				}
			}
		}
		p.Constraints = append(p.Constraints, lp.Constraint{Coeffs: row, Rel: lp.LE, RHS: g.Link(topology.LinkID(e)).CapacityBps / bw})
	}
	sol, err := lp.Solve(p)
	if err != nil || sol.Status != lp.Optimal {
		t.Fatalf("BDP LP: %v, %v", sol, err)
	}
	return sol.Objective * bw * km
}
