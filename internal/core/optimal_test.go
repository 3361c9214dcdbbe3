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
	alpha, flows, err := OptimalMLU(r, make([]float64, g.NumLinks()), []Session{s}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(alpha-1.0) > 1e-6 {
		t.Fatalf("alpha = %v, want 1.0", alpha)
	}
	if math.Abs(flows[0][0][3]-1e9) > 1 {
		t.Fatalf("flow 0->3 = %v, want 1e9", flows[0][0][3])
	}
	// With beta=0.5 the LP halves the traffic: alpha = 0.5.
	alpha, _, err = OptimalMLU(r, make([]float64, g.NumLinks()), []Session{s}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
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
	alpha, flows, err := OptimalMLU(r, make([]float64, g.NumLinks()), []Session{s}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
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
	alpha, _, err := OptimalMLU(r, bg, []Session{s}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Link 0 carries 0.5 background + 0.5 P4P = full.
	if math.Abs(alpha-1.0) > 1e-6 {
		t.Fatalf("alpha = %v, want 1.0", alpha)
	}
}

// TestDecompositionConvergesToOptimal is the paper's Proposition 1 in
// action, run as experiment X2 runs it: iterating (application
// optimizes against prices) <-> (iTracker updates prices by projected
// super-gradient) drives the time-averaged traffic pattern's MLU to
// within 10% of the centralized LP optimum, and never below it, for
// every seeded session.
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
		optAlpha, _, err := OptimalMLU(r, bg, []Session{s}, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		if optAlpha <= 0 {
			t.Fatalf("seed %d: degenerate optimal alpha %v", seed, optAlpha)
		}
		e := NewEngine(g, r, Config{Objective: MinimizeMLU, StepSize: 0.05})
		avgLoads := make([]float64, g.NumLinks())
		loads := make([]float64, g.NumLinks())
		for it := 1; it <= 200; it++ {
			tm, err := MatchTraffic(e.Matrix(pids), s, 1.0)
			if err != nil {
				t.Fatal(err)
			}
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
		if ratio := mlu / optAlpha; ratio < 1-1e-9 || ratio > 1.10 {
			t.Errorf("seed %d: decomposed MLU %v is %v times the optimal %v, want [1, 1.10]", seed, mlu, ratio, optAlpha)
		}
	}
}

// TestBDPConvergesToOptimal is TestDecompositionConvergesToOptimal's
// loop under MinimizeBDP (eq. 15), at F9's step, with per-PID demand of
// 9–12 Gbps on Abilene's 10 Gbps links, so capacity binds. The averaged
// pattern must cost at most 5 % more bandwidth-distance than the LP
// optimum under the capacity rows, and load no link above 1.05 of its
// capacity. A capacity price too small for the link lengths it is added
// to leaves the loop at the uncapacitated optimum, overloaded.
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
		for it := 1; it <= 200; it++ {
			tm, err := MatchTraffic(e.Matrix(pids), s, 1.0)
			if err != nil {
				t.Fatal(err)
			}
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
		if ratio := cost / optCost; ratio > 1.05 || util > 1.05 {
			t.Errorf("seed %d: decomposed cost %.4g is %.4f times the LP's %.4g at averaged utilization %.4f, want <= 1.05 and <= 1.05",
				seed, cost, ratio, optCost, util)
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
