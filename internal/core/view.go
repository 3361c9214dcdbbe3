package core

import (
	"fmt"

	"p4p/internal/topology"
)

// View is the external view of the p4p-distance interface: a full-mesh
// distance matrix over externally visible PIDs. Applications see only
// this — never the topology, prices, or link state.
//
// A View is immutable once published and is handled by pointer only: it
// carries a lazily built memo (see viewMemo) of what every reader would
// otherwise re-derive per call.
type View struct {
	PIDs    []topology.PID
	D       [][]float64 // D[a][b] = distance from PIDs[a] to PIDs[b]
	Version int         // engine version at materialization time

	memo viewMemo
}

// Index returns the row/column of a PID in the view.
func (v *View) Index(pid topology.PID) (int, bool) {
	c := v.Columns().Col(pid)
	return c, c >= 0
}

// Distance returns the distance between two PIDs in the view. It panics
// if either PID is absent; views are full-mesh by construction.
func (v *View) Distance(i, j topology.PID) float64 {
	x := v.Columns()
	a := x.Col(i)
	if a < 0 {
		panic(fmt.Sprintf("core: PID %d not in view", i))
	}
	b := x.Col(j)
	if b < 0 {
		panic(fmt.Sprintf("core: PID %d not in view", j))
	}
	return v.D[a][b]
}

// Weights converts the row for source PID i into the P4P-BitTorrent
// selection weights of Section 6.2: w_ij = 1/p_ij (a large value when
// p_ij = 0), normalized to sum to one, with an optional concave
// transform applied first to raise the relative weight of small w_ij —
// the paper's simple implementation of the robustness constraint (7).
// gamma in (0,1] is the concavity exponent; gamma = 1 disables the
// transform. The result is indexed like PIDs; i itself and unreachable
// PIDs get weight 0. It is computed once per (i, gamma) and shared, so
// callers must not modify it.
func (v *View) Weights(i topology.PID, gamma float64) []float64 {
	if gamma <= 0 || gamma > 1 {
		panic(fmt.Sprintf("core: concavity exponent %v out of (0, 1]", gamma))
	}
	a, ok := v.Index(i)
	if !ok {
		panic(fmt.Sprintf("core: PID %d not in view", i))
	}
	return v.memo.weights(v, a, gamma)
}

// Total returns Σ d_ij t_ij for a traffic matrix indexed like the view,
// the quantity applications minimize (eq. 5).
func (v *View) Total(t [][]float64) float64 {
	sum := 0.0
	for a := range v.PIDs {
		for b := range v.PIDs {
			if a == b || t[a][b] == 0 {
				continue
			}
			sum += v.D[a][b] * t[a][b]
		}
	}
	return sum
}
