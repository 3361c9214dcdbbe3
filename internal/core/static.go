package core

import (
	"p4p/internal/topology"

	"math"
)

// This file covers the static side of the paper's "ISP Use Cases": an
// ISP can assign p-distances without running the dual engine at all.

// HopCountView builds an external view whose distances are route hop
// counts — the simplest static assignment (d_e = 1 degenerates BDP to
// hop count, per Section 5).
func HopCountView(r *topology.Routing, pids []topology.PID) *View {
	return staticView(r, pids, func(i, j topology.PID) float64 {
		hc := r.HopCount(i, j)
		if hc < 0 {
			return math.Inf(1)
		}
		return float64(hc)
	})
}

func staticView(r *topology.Routing, pids []topology.PID, dist func(i, j topology.PID) float64) *View {
	v := &View{PIDs: append([]topology.PID(nil), pids...), D: make([][]float64, len(pids))}
	for a, i := range pids {
		v.D[a] = make([]float64, len(pids))
		for b, j := range pids {
			if a == b {
				v.D[a][b] = 0
				continue
			}
			v.D[a][b] = dist(i, j)
		}
	}
	return v
}
