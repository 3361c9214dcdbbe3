package core

import (
	"math"
	"sync"
	"testing"

	"p4p/internal/topology"
)

func sampleView() *View {
	return &View{
		PIDs: []topology.PID{0, 1, 2},
		D: [][]float64{
			{0, 2, 5},
			{2, 0, 1},
			{5, 1, 0},
		},
	}
}

func TestViewIndexAndDistance(t *testing.T) {
	v := sampleView()
	if i, ok := v.Index(2); !ok || i != 2 {
		t.Fatalf("Index(2) = %d, %v", i, ok)
	}
	if _, ok := v.Index(7); ok {
		t.Fatal("Index(7) should fail")
	}
	if d := v.Distance(0, 2); d != 5 {
		t.Fatalf("Distance(0,2) = %v, want 5", d)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Distance with unknown PID should panic")
		}
	}()
	v.Distance(0, 9)
}

func TestViewWeightsNormalize(t *testing.T) {
	v := sampleView()
	w := v.Weights(0, 1.0)
	sum := 0.0
	for _, x := range w {
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum to %v", sum)
	}
	// w ~ 1/d: PID 1 (d=2) should outweigh PID 2 (d=5).
	if w[1] <= w[2] {
		t.Fatalf("weights not inverse to distance: %v", w)
	}
	// Exact ratio check: (1/2)/(1/5) = 2.5.
	if math.Abs(w[1]/w[2]-2.5) > 1e-9 {
		t.Fatalf("weight ratio = %v, want 2.5", w[1]/w[2])
	}
}

func TestViewWeightsConcaveTransformFlattens(t *testing.T) {
	v := sampleView()
	sharp := v.Weights(0, 1.0)
	flat := v.Weights(0, 0.5)
	// The concave transform must shrink the ratio of large to small.
	if flat[1]/flat[2] >= sharp[1]/sharp[2] {
		t.Fatalf("concave transform did not flatten: %v vs %v", flat, sharp)
	}
	// Still normalized.
	if math.Abs(flat[1]+flat[2]-1) > 1e-9 {
		t.Fatal("concave weights not normalized")
	}
}

func TestViewWeightsZeroDistance(t *testing.T) {
	v := &View{
		PIDs: []topology.PID{0, 1, 2},
		D: [][]float64{
			{0, 0, 4},
			{0, 0, 4},
			{4, 4, 0},
		},
	}
	w := v.Weights(0, 1.0)
	// Zero-distance PID must dominate overwhelmingly.
	if w[1] < 0.999 {
		t.Fatalf("zero-distance weight = %v, want ~1", w[1])
	}
}

func TestViewWeightsSkipsUnreachable(t *testing.T) {
	v := &View{
		PIDs: []topology.PID{0, 1, 2},
		D: [][]float64{
			{0, math.Inf(1), 4},
			{math.Inf(1), 0, 4},
			{4, 4, 0},
		},
	}
	w := v.Weights(0, 1.0)
	if w[1] != 0 {
		t.Fatalf("unreachable PID has weight %v, want 0", w[1])
	}
	if math.Abs(w[2]-1) > 1e-9 {
		t.Fatalf("weights = %v", w)
	}
}

func TestViewWeightsPanics(t *testing.T) {
	v := sampleView()
	for _, fn := range []func(){
		func() { v.Weights(0, 0) },
		func() { v.Weights(0, 1.5) },
		func() { v.Weights(9, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

// TestViewIndexUnsortedAndSparse pins the memoised PID index on the two
// layouts it takes: a dense table over a compact PID range (here listed
// out of order) and the map it falls back to when the range is too wide.
func TestViewIndexUnsortedAndSparse(t *testing.T) {
	for _, pids := range [][]topology.PID{
		{7, 3, 5, 4},
		{1 << 40, -9, 12, 0},
	} {
		v := &View{PIDs: pids, D: make([][]float64, len(pids))}
		for c, pid := range pids {
			if got, ok := v.Index(pid); !ok || got != c {
				t.Errorf("%v: Index(%d) = %d, %v, want %d", pids, pid, got, ok, c)
			}
		}
		for _, absent := range []topology.PID{6, -1, 1 << 41, math.MinInt64, math.MaxInt64} {
			if c, ok := v.Index(absent); ok || c != -1 {
				t.Errorf("%v: Index(%d) = %d, %v, want -1, false", pids, absent, c, ok)
			}
			if r := v.Columns().RankOf(absent); r != len(pids) {
				t.Errorf("%v: RankOf(%d) = %d, want %d", pids, absent, r, len(pids))
			}
		}
		for a := range pids {
			below := 0
			for _, q := range pids {
				if q < pids[a] {
					below++
				}
			}
			if got := v.Columns().RankOf(pids[a]); got != below {
				t.Errorf("%v: RankOf(%d) = %d, want %d", pids, pids[a], got, below)
			}
		}
	}
	// A PID listed twice keeps its first column, and that column's rank.
	for _, p := range []topology.PID{7, 1 << 40} {
		v := &View{PIDs: []topology.PID{p, -9, p}, D: make([][]float64, 3)}
		if c, _ := v.Index(p); c != 0 || v.Columns().RankOf(p) != 1 {
			t.Errorf("%v: Index(%d) = %d, RankOf = %d; want 0, 1", v.PIDs, p, c, v.Columns().RankOf(p))
		}
	}
	if _, ok := (&View{}).Index(0); ok {
		t.Error("empty view claims to hold PID 0")
	}
}

// TestViewWeightsMemoised pins the memo's lifetime: one row per (source
// PID, gamma) for the life of the view, shared by every caller.
func TestViewWeightsMemoised(t *testing.T) {
	v := sampleView()
	a, b := v.Weights(0, 0.5), v.Weights(0, 0.5)
	if &a[0] != &b[0] {
		t.Error("second Weights(0, 0.5) recomputed its row")
	}
	if c := v.Weights(0, 1); &c[0] == &a[0] {
		t.Error("gamma 1 shares gamma 0.5's row")
	}
	if c := v.Weights(1, 0.5); &c[0] == &a[0] {
		t.Error("source PID 1 shares source PID 0's row")
	}
	if a[0] != 0 {
		t.Errorf("self weight = %v, want 0", a[0])
	}
}

// TestViewMemoConcurrent: readers on many goroutines may be the first to
// ask a fresh view for its index and its rows (run under -race).
func TestViewMemoConcurrent(t *testing.T) {
	v := sampleView()
	want := v.D[0][2]
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				src := topology.PID((g + i) % 3)
				if d := v.Distance(0, 2); d != want {
					t.Errorf("Distance(0,2) = %v, want %v", d, want)
				}
				if w := v.Weights(src, 0.5); len(w) != 3 || w[src] != 0 {
					t.Errorf("Weights(%d, 0.5) = %v", src, w)
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestViewTotal(t *testing.T) {
	v := sampleView()
	tm := [][]float64{
		{0, 1, 1},
		{0, 0, 2},
		{0, 0, 0},
	}
	// 2*1 + 5*1 + 1*2 = 9.
	if got := v.Total(tm); got != 9 {
		t.Fatalf("Total = %v, want 9", got)
	}
}

func TestStaticViews(t *testing.T) {
	g, r := fourLine()
	pids := g.AggregationPIDs()
	hv := HopCountView(r, pids)
	if hv.Distance(0, 3) != 3 || hv.Distance(0, 0) != 0 {
		t.Fatalf("hop view wrong: %v", hv.D)
	}
}
