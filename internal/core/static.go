package core

import (
	"p4p/internal/topology"

	"math"
)

// This file covers the static side of the paper's "ISP Use Cases": an
// ISP can assign p-distances without running the dual engine at all.

// HopCountView builds an external view whose distances are route hop
// counts — the simplest static assignment (d_e = 1 degenerates BDP to
// hop count, per Section 5) — and +Inf where there is no route.
func HopCountView(r *topology.Routing, pids []topology.PID) *View {
	v := &View{PIDs: append([]topology.PID(nil), pids...), D: make([][]float64, len(pids))}
	for a, i := range pids {
		v.D[a] = make([]float64, len(pids))
		for b, j := range pids {
			if hc := r.HopCount(i, j); hc < 0 {
				v.D[a][b] = math.Inf(1)
			} else {
				v.D[a][b] = float64(hc)
			}
		}
	}
	return v
}
