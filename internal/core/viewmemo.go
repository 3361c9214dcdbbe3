package core

import (
	"math"
	"sort"
	"sync"

	"p4p/internal/topology"
)

// viewMemo is what readers derive from a published View, built lazily
// and shared by all of them: the PID index on the first Columns, Index,
// Distance or Weights call, and one weight row per (source column,
// gamma) on the first Weights call for that pair. It lives and dies with its
// view — one view version — and nothing in it is ever invalidated,
// because a published view never changes. Its sync fields also make
// `go vet` reject a View copied by value.
type viewMemo struct {
	once sync.Once
	idx  PIDIndex

	mu   sync.Mutex
	rows map[weightKey][]float64
}

type weightKey struct {
	col   int
	gamma float64
}

// PIDIndex is a view's PID → column and PID → rank lookup, O(1). PIDs
// are small dense integers in every topology here, so it is two tables
// over [base, base+len(dense)); a view whose PIDs span too wide a range
// for that falls back to a map. Loops over many PIDs of one view (the
// selector's, once per candidate) hold it rather than call View.Index,
// so that the lookup inlines.
type PIDIndex struct {
	base   topology.PID
	dense  []int32                // dense[pid-base] = column, -1 where the view has no such PID
	ranks  []int32                // ranks[pid-base] = rank[dense[pid-base]], len(rank) where the view has no such PID
	sparse map[topology.PID]int32 // used instead of dense and ranks when non-nil
	rank   []int32                // rank[column] = position of that column's PID in ascending PID order
}

// Col returns the column of pid in the view, or -1 if the view does not
// list it.
func (x *PIDIndex) Col(pid topology.PID) int {
	if x.sparse != nil {
		if c, ok := x.sparse[pid]; ok {
			return int(c)
		}
		return -1
	}
	if off := uint(pid - x.base); off < uint(len(x.dense)) {
		return int(x.dense[off])
	}
	return -1
}

// Columns returns the view's PID index, building it on first use.
func (v *View) Columns() *PIDIndex {
	v.memo.once.Do(v.buildIndex)
	return &v.memo.idx
}

// buildIndex runs once per view. A PID listed twice keeps its first
// column, as the linear scan it replaces did.
func (v *View) buildIndex() {
	x := &v.memo.idx
	n := len(v.PIDs)
	byPID := make([]int32, n)
	for c := range byPID {
		byPID[c] = int32(c)
	}
	sort.SliceStable(byPID, func(i, j int) bool { return v.PIDs[byPID[i]] < v.PIDs[byPID[j]] })
	x.rank = make([]int32, n)
	for r, c := range byPID {
		x.rank[c] = int32(r)
	}
	if n == 0 {
		return
	}
	lo, hi := v.PIDs[byPID[0]], v.PIDs[byPID[n-1]]
	if span := uint(hi - lo); span < uint(8*n+64) {
		x.base = lo
		x.dense, x.ranks = make([]int32, span+1), make([]int32, span+1)
		for i := range x.dense {
			x.dense[i], x.ranks[i] = -1, int32(n)
		}
		for c := n - 1; c >= 0; c-- {
			x.dense[v.PIDs[c]-lo], x.ranks[v.PIDs[c]-lo] = int32(c), x.rank[c]
		}
		return
	}
	x.sparse = make(map[topology.PID]int32, n)
	for c := n - 1; c >= 0; c-- {
		x.sparse[v.PIDs[c]] = int32(c)
	}
}

// RankOf returns pid's position in the view's PIDs sorted ascending (the
// PID count if it is not listed), so the selector buckets its draws in
// that order without a per-call sort. Like Col it is one table lookup.
func (x *PIDIndex) RankOf(pid topology.PID) int {
	if off := uint(pid - x.base); x.sparse == nil && off < uint(len(x.ranks)) {
		return int(x.ranks[off])
	}
	if c, ok := x.sparse[pid]; ok {
		return int(x.rank[c])
	}
	return len(x.rank)
}

func (m *viewMemo) weights(v *View, a int, gamma float64) []float64 {
	k := weightKey{a, gamma}
	m.mu.Lock()
	defer m.mu.Unlock()
	if row, ok := m.rows[k]; ok {
		return row
	}
	return m.addRow(v, k)
}

// addRow computes and stores the weight row for k; m.mu is held. The
// operations and their order are those of the map-returning Weights this
// replaces, so every stored value is bit-identical to what it returned.
func (m *viewMemo) addRow(v *View, k weightKey) []float64 {
	// The "large value" substituted for 1/0. Anything much larger than
	// the other weights works; it is normalized away below.
	const largeWeight = 1e6
	a := k.col
	row := make([]float64, len(v.PIDs))
	sum := 0.0
	for b := range v.PIDs {
		d := v.D[a][b]
		if b == a || math.IsInf(d, 1) {
			continue
		}
		var w float64
		if d <= 0 {
			w = largeWeight
		} else {
			w = 1 / d
		}
		w = math.Pow(w, k.gamma)
		row[b] = w
		sum += w
	}
	if sum != 0 {
		for b := range v.PIDs {
			if b != a && !math.IsInf(v.D[a][b], 1) {
				row[b] /= sum
			}
		}
	}
	if m.rows == nil {
		m.rows = map[weightKey][]float64{}
	}
	m.rows[k] = row
	return row
}
