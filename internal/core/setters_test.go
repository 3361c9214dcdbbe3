package core

import (
	"math"
	"slices"
	"testing"

	"p4p/internal/topology"
)

// TestRatesThatOverflowAreRefused: a rate whose (b_e + t̄_e)/c_e is
// finite on its own but not once the other vector is added, or not once
// α c_e is formed on a larger link, used to be stored; under MLU the
// next Update then panicked projecting NaN, and under BDP every price
// went to +Inf and stayed there. A negative rate used to be stored
// without a word.
func TestRatesThatOverflowAreRefused(t *testing.T) {
	// Abilene's links are all 10 Gbps; on the line, link 0 is 1 Mbps and
	// link 2 is 10 Gbps, so 1e306 on link 0 is a finite utilization whose
	// α c_e on link 2 is not.
	line := topology.NewGraph("unequal")
	a := line.AddNode(topology.Node{Name: "a", Kind: topology.Aggregation})
	b := line.AddNode(topology.Node{Name: "b", Kind: topology.Aggregation})
	c := line.AddNode(topology.Node{Name: "c", Kind: topology.Aggregation})
	line.AddDuplex(a, b, 1e6, 1, 100)
	line.AddDuplex(b, c, 1e10, 1, 100)
	for _, g := range []*topology.Graph{topology.Abilene(), line} {
		r := topology.ComputeRouting(g)
		n := g.NumLinks()
		fill := func(v float64) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = v
			}
			return out
		}
		for _, obj := range []Objective{MinimizeMLU, MinimizeBDP} {
			e := NewEngine(g, r, Config{Objective: obj})
			e.ObserveTraffic(fill(math.MaxFloat64 / 1e10))
			calls := map[string]func(){
				"SetBackground(MaxFloat64) over MaxFloat64/1e10 traffic": func() { e.SetBackground(fill(math.MaxFloat64)) },
				"ObserveTraffic(-1e12)":                                  func() { e.ObserveTraffic(fill(-1e12)) },
				"SetBackground(-1)":                                      func() { e.SetBackground(fill(-1)) },
			}
			if g == line {
				calls["SetBackground(1e306 on link 0)"] = func() { e.SetBackground(append([]float64{1e306}, make([]float64, n-1)...)) }
			}
			for name, call := range calls {
				if !panics(call) {
					t.Errorf("%s %v: %s accepted", g.Name, obj, name)
				}
			}
			norm, mlu := e.Update()
			if !finite(norm) || !finite(mlu) {
				t.Fatalf("%s %v: Update returned step norm %v, MLU %v", g.Name, obj, norm, mlu)
			}
			for i, p := range e.Prices() {
				if !finite(p) || p < 0 {
					t.Fatalf("%s %v: price of link %d = %v", g.Name, obj, i, p)
				}
			}
		}
	}
}

func panics(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// FuzzEngineSetters drives an engine over AbileneVirtualISPs (links
// 14–17 are interdomain) through a byte-driven sequence of
// SetBackground, ObserveTraffic, SetPrice, SetVirtualCapacity and Update
// calls, with values from {0, 1, c_e, ±1e300, MaxFloat64, NaN, ±Inf, −1}.
// The first byte picks the objective. Each later byte is one call; a
// setter reads two more, its value and its link (255: a rate on every
// link). Past the end of data every byte reads as zero. Checked:
//   - every setter refuses a negative or NaN value;
//   - a refused call panics and stores nothing: prices, Version and MLU
//     are as before;
//   - Update never panics, returns a finite step norm and MLU, and
//     leaves every price finite and ≥ 0.
func FuzzEngineSetters(f *testing.F) {
	f.Add([]byte{})
	// MaxFloat64 traffic, then MaxFloat64 background, on every link, and
	// a step, under each objective.
	f.Add([]byte{0, 1, 5, 255, 0, 5, 255, 4})
	f.Add([]byte{1, 1, 5, 255, 0, 5, 255, 4})
	// MaxFloat64 as the price of two links, then a step under MLU: the
	// projection moves each by ~MaxFloat64, so the step norm overflows.
	f.Add([]byte{0, 2, 5, 20, 2, 5, 21, 4})
	// Negative traffic, background and price on one link.
	f.Add([]byte{0, 1, 9, 3, 0, 4, 3, 2, 9, 3, 4})
	// A virtual capacity of 1 on the interdomain links, 1e300 traffic on
	// every link for two steps, then MaxFloat64 on one interdomain link
	// for a dozen: the eq. 16 price grows by μ(t̄_e − v_e)/v_e a step.
	f.Add([]byte{1, 3, 1, 14, 3, 1, 15, 3, 1, 16, 3, 1, 17, 1, 3, 255, 4, 4,
		1, 5, 14, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4})
	// Each value as a price, a virtual capacity and both rates.
	var all []byte
	for v := byte(0); v < 10; v++ {
		all = append(all, 2, v, v, 3, v, v+14, 0, v, 255, 1, v, 7, 4)
	}
	f.Add(append([]byte{0}, all...))
	f.Add(append([]byte{1}, all...))
	g := topology.AbileneVirtualISPs()
	r := topology.ComputeRouting(g)
	n := g.NumLinks()
	values := func(link topology.LinkID) [10]float64 {
		return [10]float64{0, 1, g.Link(link).CapacityBps, 1e300, -1e300, math.MaxFloat64,
			math.NaN(), math.Inf(1), math.Inf(-1), -1}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		at := 0
		next := func() int {
			if at >= len(data) {
				return 0
			}
			at++
			return int(data[at-1])
		}
		cfg := Config{}
		if next()%2 == 1 {
			cfg.Objective = MinimizeBDP
		}
		e := NewEngine(g, r, cfg)
		for at < len(data) {
			op := next() % 5
			if op == 4 {
				norm, mlu := e.Update()
				if !finite(norm) || !finite(mlu) {
					t.Fatalf("byte %d: Update returned step norm %v, MLU %v", at, norm, mlu)
				}
				for i, p := range e.Prices() {
					if !finite(p) || p < 0 {
						t.Fatalf("byte %d: price of link %d = %v after Update", at, i, p)
					}
				}
				continue
			}
			k, l := next()%10, next()
			link := topology.LinkID(l % n)
			v := values(link)[k]
			var call func()
			switch op {
			case 0, 1:
				bps := make([]float64, n)
				bps[link] = v
				if l == 255 {
					for i := range bps {
						bps[i] = values(topology.LinkID(i))[k]
					}
				}
				call = func() { e.SetBackground(bps) }
				if op == 1 {
					call = func() { e.ObserveTraffic(bps) }
				}
			case 2:
				call = func() { e.SetPrice(link, v) }
			case 3:
				call = func() { e.SetVirtualCapacity(link, v) }
			}
			prices, version, mlu := e.Prices(), e.Version(), e.MLU()
			if !panics(call) {
				if v < 0 || math.IsNaN(v) {
					t.Fatalf("byte %d: call %d accepted %v on link %d", at, op, v, link)
				}
				continue
			}
			if e.Version() != version || math.Float64bits(e.MLU()) != math.Float64bits(mlu) ||
				!slices.EqualFunc(e.Prices(), prices, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
				t.Fatalf("byte %d: refused call %d of %v on link %d stored something", at, op, v, link)
			}
		}
	})
}
