// Package core implements the paper's primary contribution: the
// p4p-distance interface backed by optimization decomposition
// (Sections 4–5).
//
// The iTracker's internal view is a PID-level topology with per-link
// state: capacity c_e, background traffic b_e, and — for interdomain
// links under percentile billing — a virtual capacity v_e. The engine
// maintains a dual price p_e on every link and exposes to applications
// only the external view: the full-mesh PID-pair distances
//
//	p_ij = Σ_{e on route(i,j)} price_e
//
// where price_e is p_e for the MLU objective and p_e + d_e for the
// bandwidth-distance-product objective (eq. 15).
//
// Prices evolve by the projected super-gradient method of Section 5:
//
//	p_e(τ+1) = [ p_e(τ) + μ(τ) ξ_e(τ) ]⁺_S
//
// with ξ_e = b_e + t̄_e − α c_e for MLU (Proposition 1), where t̄_e is
// the observed P4P traffic on link e and α the current maximum link
// utilization, projected onto S = {p ≥ 0, Σ_e c_e p_e = 1}; and
// ξ_e = b_e + t̄_e − c_e for BDP, projected onto the non-negative
// orthant. Interdomain links instead price the virtual-capacity
// constraint (eq. 16): ξ_e = t̄_e − v_e, p_e ≥ 0.
package core

import (
	"fmt"
	"math"
	"sync"

	"p4p/internal/topology"
)

// Objective selects the ISP traffic-engineering objective that the dual
// prices optimize (Section 5 and its "Extensions to ISP Objective").
type Objective int

const (
	// MinimizeMLU minimizes the maximum link utilization (eqs. 8–14).
	MinimizeMLU Objective = iota
	// MinimizeBDP minimizes the bandwidth-distance product (eq. 15); the
	// exposed distances become p_ij + d_ij.
	MinimizeBDP
)

func (o Objective) String() string {
	switch o {
	case MinimizeMLU:
		return "min-mlu"
	case MinimizeBDP:
		return "min-bdp"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// Config parameterizes an Engine.
type Config struct {
	// Objective is the ISP objective; default MinimizeMLU.
	Objective Objective
	// StepSize is the constant super-gradient step μ. The paper notes
	// that, with networks and applications continuously evolving, a
	// constant step is used in practice. Default 0.1.
	StepSize float64
}

// Check reports why NewEngine would refuse c, or nil: a step that is
// negative or not finite (it makes every stepped price non-finite).
func (c Config) Check() error {
	if !(c.StepSize >= 0 && c.StepSize <= math.MaxFloat64) {
		return fmt.Errorf("core: step size %v is not finite and non-negative", c.StepSize)
	}
	return nil
}

// Engine is the dual-decomposition p-distance engine. It is safe for
// concurrent use: queries take a read lock, updates a write lock.
type Engine struct {
	mu sync.RWMutex

	g   *topology.Graph
	r   *topology.Routing
	cfg Config

	prices  []float64 // p_e per link
	bg      []float64 // current background rate per link, bits/sec
	virtual []float64 // v_e per link (bits/sec); NaN when not set
	lastT   []float64 // last observed P4P traffic per link, bits/sec

	// Per-link attributes copied from g at NewEngine, so the price loop
	// reads flat vectors instead of copying the link table.
	capacity, distKm []float64
	interdomain      []bool
	// maxCap is the largest c_e. maxPrice, √(MaxFloat64 / 2·len(links)),
	// caps a price so that the step norm's sum of squares and every route
	// sum stay finite however long a link stays overloaded.
	maxCap, maxPrice float64
	// Scratch owned by Update (simplex member indices, their stepped
	// prices and capacities, the pre-step prices) and by Matrix (the
	// per-link exposed price, route sums from one source). Both run under
	// the write lock, so steady-state calls allocate nothing here.
	intra               []int
	y, yCap, prev       []float64
	linkPrices, routeTo []float64

	version int // incremented on every price update
}

// NewEngine builds an engine over a routed topology. Initial prices are
// uniform on the projection set for MLU (p_e = 1/Σc_e) and zero for BDP.
// Link capacities, distances and interdomain flags are read from g here,
// once: topologies are finished before an engine is built over them, and
// a later g.SetLink is not seen. It panics on a cfg that Check refuses.
func NewEngine(g *topology.Graph, r *topology.Routing, cfg Config) *Engine {
	if err := cfg.Check(); err != nil {
		panic(err.Error())
	}
	if cfg.StepSize == 0 {
		cfg.StepSize = 0.1
	}
	n := g.NumLinks()
	e := &Engine{
		g:       g,
		r:       r,
		cfg:     cfg,
		prices:  make([]float64, n),
		bg:      make([]float64, n),
		virtual: make([]float64, n),
		lastT:   make([]float64, n),

		capacity:    make([]float64, n),
		distKm:      make([]float64, n),
		interdomain: make([]bool, n),
		maxPrice:    math.Sqrt(math.MaxFloat64 / float64(2*n)),
		intra:       make([]int, n),
		y:           make([]float64, n),
		yCap:        make([]float64, n),
		prev:        make([]float64, n),
		linkPrices:  make([]float64, n),
		routeTo:     make([]float64, g.NumNodes()),
	}
	var capSum float64
	for i, l := range g.Links() {
		e.virtual[i] = math.NaN()
		e.capacity[i], e.distKm[i], e.interdomain[i] = l.CapacityBps, l.DistanceKm, l.Interdomain
		capSum += l.CapacityBps
		e.maxCap = math.Max(e.maxCap, l.CapacityBps)
	}
	if cfg.Objective == MinimizeMLU {
		for i := range e.prices {
			e.prices[i] = 1 / capSum
		}
	}
	return e
}

// Graph returns the engine's internal-view topology.
func (e *Engine) Graph() *topology.Graph { return e.g }

// Routing returns the engine's routing.
func (e *Engine) Routing() *topology.Routing { return e.r }

// Version returns a counter incremented on every price update, letting
// callers cache distance matrices until they change.
func (e *Engine) Version() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.version
}

// SetBackground installs current background rates (bits/sec per link).
// A rate is refused as in ObserveTraffic.
func (e *Engine) SetBackground(bps []float64) { e.setRates("background", e.bg, e.lastT, bps) }

// SetVirtualCapacity installs the virtual capacity v_e (bits/sec) for an
// interdomain link; its price then tracks the eq. 16 constraint instead
// of the intradomain objective. A negative, NaN or infinite capacity is
// refused: an infinite one makes the next step's price NaN.
func (e *Engine) SetVirtualCapacity(link topology.LinkID, bps float64) {
	if !(bps >= 0 && bps <= math.MaxFloat64) {
		panic(fmt.Sprintf("core: virtual capacity %v on link %d is not finite and non-negative", bps, link))
	}
	e.mu.Lock()
	e.virtual[link] = bps
	e.mu.Unlock()
}

// ObserveTraffic records measured P4P traffic t̄_e (bits/sec per link),
// as estimated from traffic measurements at each edge (Section 5).
// Before anything is stored, it refuses a negative or NaN rate, and one
// whose utilization (b_e + t̄_e)/c_e, times the largest capacity, is not
// finite: α c_e enters every MLU step, and p + μξ never leaves NaN, so
// one such rate would poison that link's price, every route over it,
// and every view served from then on.
func (e *Engine) ObserveTraffic(bps []float64) { e.setRates("observation", e.lastT, e.bg, bps) }

// setRates checks bps against the other rate vector under the lock,
// then copies it into dst.
func (e *Engine) setRates(what string, dst, other, bps []float64) {
	if len(bps) != len(dst) {
		panic(fmt.Sprintf("core: %s for %d links, graph has %d", what, len(bps), len(dst)))
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, v := range bps {
		if u := (v + other[i]) / e.capacity[i]; !(v >= 0 && u*e.maxCap <= math.MaxFloat64) {
			panic(fmt.Sprintf("core: %s %v on link %d is negative or overflows its utilization", what, v, i))
		}
	}
	copy(dst, bps)
}

// MLU returns the maximum link utilization implied by the current
// background plus last observed P4P traffic.
func (e *Engine) MLU() float64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.mluLocked()
}

func (e *Engine) mluLocked() float64 {
	alpha := 0.0
	for i, c := range e.capacity {
		u := (e.bg[i] + e.lastT[i]) / c
		if u > alpha {
			alpha = u
		}
	}
	return alpha
}

// Update performs one projected super-gradient step from the last
// observation, following Proposition 1 and its extensions, and returns
// the step's norm ‖p(τ+1) − p(τ)‖₂ and the maximum link utilization of
// that observation.
func (e *Engine) Update() (stepNorm, mlu float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	bg, mu := e.bg, e.cfg.StepSize
	mlu = e.mluLocked()
	copy(e.prev, e.prices)
	// Intradomain links under MLU take a gradient step and then a
	// capacity-weighted simplex projection together; every other link
	// is projected onto p_e >= 0 on its own.
	intra, y, yCap := e.intra[:0], e.y[:0], e.yCap[:0]
	for i, c := range e.capacity {
		switch {
		case e.interdomain[i] && !math.IsNaN(e.virtual[i]):
			// An interdomain link with a virtual capacity prices the
			// eq. 16 constraint t_e <= v_e instead, normalized by v_e so
			// the step size is comparable across links of different scale.
			scale := e.virtual[i]
			if scale <= 0 {
				scale = c
			}
			g := (e.lastT[i] - e.virtual[i]) / scale
			e.prices[i] = min(math.Max(0, e.prices[i]+mu*g), e.maxPrice)
		case e.cfg.Objective == MinimizeBDP:
			// ξ_e = b_e + t̄_e − c_e (eq. 15), normalized by c_e.
			g := (bg[i] + e.lastT[i] - c) / c
			e.prices[i] = min(math.Max(0, e.prices[i]+mu*g), e.maxPrice)
		case e.cfg.Objective == MinimizeMLU:
			// ξ_e = b_e + t̄_e − α c_e, normalized by Σc to keep the
			// simplex step well-scaled.
			g := (bg[i] + e.lastT[i] - mlu*c) / c
			intra = append(intra, i)
			y = append(y, e.prices[i]+mu*g/c)
			yCap = append(yCap, c)
		}
	}
	projectWeightedSimplex(y, yCap)
	for k, i := range intra {
		e.prices[i] = y[k]
	}
	for i, p := range e.prices {
		d := p - e.prev[i]
		stepNorm += d * d
	}
	e.version++
	return math.Sqrt(stepNorm), mlu
}

// SetPrice overrides one link's dual price — a provider-side warm
// start. Typical use: initializing an interdomain link's price from
// historical billing data so the very first applications already avoid
// it; the super-gradient updates then relax or reinforce it. A
// negative or NaN price, or one above the cap Update keeps prices
// under (~1e153 on Abilene), is refused: no step makes a NaN price a
// number again, and a larger one overflows the next step norm.
func (e *Engine) SetPrice(link topology.LinkID, price float64) {
	if !(price >= 0 && price <= e.maxPrice) {
		panic(fmt.Sprintf("core: price %v on link %d is negative or above %v", price, link, e.maxPrice))
	}
	e.mu.Lock()
	e.prices[link] = price
	e.version++
	e.mu.Unlock()
}

// Price returns the current dual price of one link.
func (e *Engine) Price(link topology.LinkID) float64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.prices[link]
}

// Prices returns a copy of all link prices.
func (e *Engine) Prices() []float64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]float64, len(e.prices))
	copy(out, e.prices)
	return out
}

// linkPrice is the per-link contribution to exposed distances.
func (e *Engine) linkPrice(i int) float64 {
	if e.cfg.Objective == MinimizeBDP {
		// Exposed distances for BDP are {p_ij + d_ij} (eq. 15 and the
		// derivation following it).
		return e.prices[i] + e.distKm[i]
	}
	return e.prices[i]
}

// PDistance returns the external-view distance p_ij between two PIDs
// under the current prices: the link prices along the route, added in
// route order from zero — the sum Matrix accumulates down the routing
// tree, bit for bit. p_ii is 0: traffic staying inside one PID never
// crosses a backbone link.
func (e *Engine) PDistance(i, j topology.PID) float64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if i == j {
		return 0
	}
	path := e.r.Path(i, j)
	if path == nil {
		return math.Inf(1)
	}
	sum := 0.0
	for _, id := range path {
		sum += e.linkPrice(int(id))
	}
	return sum
}

// Matrix materializes the external view over the given PIDs. This is
// what the p4p-distance interface serves to applications.
//
// Each link is priced once, and each row's route sums are accumulated
// down the source's routing tree (topology.Routing.Tree): one addition
// per node, in the order a walk of each route would make them.
func (e *Engine) Matrix(pids []topology.PID) *View {
	e.mu.Lock() // full lock: the scratch mutates
	defer e.mu.Unlock()
	n := len(pids)
	v := &View{PIDs: append([]topology.PID(nil), pids...), D: make([][]float64, n), Version: e.version}
	prices, routeTo := e.linkPrices, e.routeTo
	for l := range prices {
		prices[l] = e.linkPrice(l)
	}
	flat := make([]float64, n*n)
	for a, i := range pids {
		for k := range routeTo {
			routeTo[k] = math.Inf(1)
		}
		routeTo[i] = 0
		for _, h := range e.r.Tree(i) {
			routeTo[h.Node] = routeTo[h.Parent] + prices[h.Link]
		}
		row := flat[a*n : (a+1)*n : (a+1)*n]
		for b, j := range pids {
			row[b] = routeTo[j]
		}
		v.D[a] = row
	}
	return v
}
