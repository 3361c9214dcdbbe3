package charging

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"p4p/internal/traffic"
)

func TestPercentileBasics(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	if got := Percentile(v, 1.0); got != 5 {
		t.Fatalf("p100 = %v, want 5", got)
	}
	if got := Percentile(v, 0.2); got != 1 {
		t.Fatalf("p20 = %v, want 1", got)
	}
	if got := Percentile(v, 0.6); got != 3 {
		t.Fatalf("p60 = %v, want 3", got)
	}
	// Input must not be mutated.
	if v[0] != 5 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestPercentilePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { Percentile(nil, 0.95) },
		func() { Percentile([]float64{1}, 0) },
		func() { Percentile([]float64{1}, 1.5) },
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

// TestPercentileProperty: result is always an element of the input and
// at least q of the elements are <= it.
func TestPercentileProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	prop := func() bool {
		n := 1 + rng.Intn(50)
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64() * 100
		}
		q := 0.05 + 0.95*rng.Float64()
		got := Percentile(v, q)
		found := false
		atOrBelow := 0
		for _, x := range v {
			if x == got {
				found = true
			}
			if x <= got {
				atOrBelow++
			}
		}
		if !found {
			return false
		}
		return float64(atOrBelow) >= q*float64(n)-1e-9
	}
	if err := quick.Check(func() bool { return prop() }, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStandardMonthlyBillingIndex(t *testing.T) {
	m := StandardMonthly()
	if m.PeriodIntervals != 8640 {
		t.Fatalf("PeriodIntervals = %d, want 8640", m.PeriodIntervals)
	}
	// The paper: 95% x 30 x 24 x 60/5 = 8208, so a month whose k-th
	// smallest interval carries k bytes bills at 8208.
	v := make([]float64, m.PeriodIntervals)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if got := Percentile(v, m.Q); got != 8208 {
		t.Fatalf("billed interval = %v, want 8208", got)
	}
}

func TestChargingVolumeIsSortedIndex(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1) // 1..100
	}
	rand.New(rand.NewSource(1)).Shuffle(len(v), func(i, j int) { v[i], v[j] = v[j], v[i] })
	if got := Percentile(v, 0.95); got != 95 {
		t.Fatalf("charging volume = %v, want 95", got)
	}
}

func TestPredictorWindows(t *testing.T) {
	m := Model{Q: 0.5, PeriodIntervals: 10}
	p := &Predictor{Model: m, WarmupIntervals: 3}
	// First period, warmup: uses whole (short) history.
	hist := []float64{1, 2, 3}
	got := p.PredictChargingVolume(hist)
	if got != 2 { // median of 1,2,3
		t.Fatalf("warmup prediction = %v, want 2", got)
	}
	// Second period, past warmup: history of 15 intervals; i=15, s=10,
	// i > s+M=13 so use history[10:15].
	hist = make([]float64, 15)
	for i := range hist {
		hist[i] = float64(i)
	}
	got = p.PredictChargingVolume(hist)
	want := Percentile(hist[10:15], 0.5)
	if got != want {
		t.Fatalf("in-period prediction = %v, want %v", got, want)
	}
	// Second period, inside warmup: i=11, s=10, i <= 13 so window is the
	// last I=10 samples: hist[1:11].
	got = p.PredictChargingVolume(hist[:11])
	want = Percentile(hist[1:11], 0.5)
	if got != want {
		t.Fatalf("cross-period prediction = %v, want %v", got, want)
	}
	if p.PredictChargingVolume(nil) != 0 {
		t.Fatal("empty history must predict 0")
	}
}

func TestMovingAverage(t *testing.T) {
	m := MovingAverage{Window: 3}
	if got := m.Predict([]float64{1, 2, 3, 4, 5}); got != 4 {
		t.Fatalf("MA(3) = %v, want 4", got)
	}
	if got := m.Predict([]float64{6}); got != 6 {
		t.Fatalf("MA on short history = %v, want 6", got)
	}
	if got := m.Predict(nil); got != 0 {
		t.Fatalf("MA on empty = %v, want 0", got)
	}
	if got := (MovingAverage{}).Predict([]float64{2, 8}); got != 8 {
		t.Fatalf("MA with zero window = %v, want last sample 8", got)
	}
}

func TestVirtualCapacityNonNegative(t *testing.T) {
	e := &VirtualCapacityEstimator{
		Predictor: Predictor{Model: Model{Q: 0.95, PeriodIntervals: 100}, WarmupIntervals: 10},
		Average:   MovingAverage{Window: 5},
	}
	// Rising traffic: recent average may exceed the charging percentile.
	hist := make([]float64, 50)
	for i := range hist {
		hist[i] = float64(i * i)
	}
	if v := e.Estimate(hist); v < 0 {
		t.Fatalf("virtual capacity = %v, must be >= 0", v)
	}
	// Flat traffic: estimate should be ~0 (charge == average).
	flat := make([]float64, 50)
	for i := range flat {
		flat[i] = 100
	}
	if v := e.Estimate(flat); v != 0 {
		t.Fatalf("flat-traffic virtual capacity = %v, want 0", v)
	}
	// Bursty history with quiet present: headroom appears.
	bursty := append(append([]float64{}, make([]float64, 40)...), 1000)
	for i := 0; i < 40; i++ {
		bursty[i] = 900
	}
	bursty = append(bursty, 10, 10, 10, 10, 10)
	if v := e.Estimate(bursty); v <= 0 {
		t.Fatalf("bursty virtual capacity = %v, want > 0", v)
	}
}

func TestLedgerAdd(t *testing.T) {
	l := NewLedger(300)
	l.Add(0, 10)
	l.Add(299, 5)
	l.Add(300, 7)
	l.Add(3000, 1)
	v := l.Volumes()
	if v[0] != 15 || v[1] != 7 || v[10] != 1 {
		t.Fatalf("volumes = %v", v)
	}
	if l.Total() != 23 {
		t.Fatalf("total = %v, want 23", l.Total())
	}
}

func TestLedgerAddSpread(t *testing.T) {
	l := NewLedger(100)
	l.AddSpread(50, 250, 200) // 1 byte/sec over [50,250)
	v := l.Volumes()
	if math.Abs(v[0]-50) > 1e-9 || math.Abs(v[1]-100) > 1e-9 || math.Abs(v[2]-50) > 1e-9 {
		t.Fatalf("spread volumes = %v", v)
	}
	if math.Abs(l.Total()-200) > 1e-9 {
		t.Fatalf("total = %v, want 200", l.Total())
	}
	// Degenerate span collapses to a point.
	l2 := NewLedger(100)
	l2.AddSpread(10, 10, 42)
	if l2.Volumes()[0] != 42 {
		t.Fatal("degenerate spread lost bytes")
	}
}

// TestLedgerAddSpreadFractionalInterval spreads spans across boundaries
// of intervals that are not integers, where a boundary recomputed from a
// time can round back onto that time (4.3/0.1 is 42.999…). Every row
// must return and conserve the bytes it was given.
func TestLedgerAddSpreadFractionalInterval(t *testing.T) {
	for _, tc := range []struct{ interval, start, end float64 }{
		{0.1, 4.25, 4.35},
		{0.1, 0, 10},
		{0.1, 4.3, 4.3000001},
		{0.3, 0.2, 7.9},
		{0.3, 0.9, 1.2},
		{1.0 / 3, 0, 5},
		{1.0 / 3, 2.0 / 3, 3},
	} {
		done := make(chan *Ledger, 1)
		go func() {
			l := NewLedger(tc.interval)
			l.AddSpread(tc.start, tc.end, 1000)
			done <- l
		}()
		select {
		case l := <-done:
			if got := l.Total(); math.Abs(got-1000) > 1e-9 {
				t.Errorf("I=%v [%v, %v): total = %v, want 1000", tc.interval, tc.start, tc.end, got)
			}
			if want := int(tc.end/tc.interval) + 1; len(l.Volumes()) > want {
				t.Errorf("I=%v [%v, %v): %d intervals, want at most %d", tc.interval, tc.start, tc.end, len(l.Volumes()), want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("I=%v: AddSpread(%v, %v) did not return", tc.interval, tc.start, tc.end)
		}
	}
}

func TestLedgerPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewLedger(0) },
		func() { NewLedger(300).Add(-1, 5) },
		func() { NewLedger(300).AddSpread(-1, 5, 1) },
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

// TestPredictorOnDiurnalTraces reproduces the Section 6.1 observation:
// on diurnal traffic whose level shifts between periods, the hybrid
// predictor tracks the new period's charging volume more accurately than
// a pure sliding window once warmup has passed.
func TestPredictorOnDiurnalTraces(t *testing.T) {
	iPer := 288 // one day as a mini charging period
	cfg := traffic.DefaultConfig(1e9)
	day1 := traffic.Generate(cfg, iPer)
	cfg2 := cfg
	cfg2.MeanBps = 4e9 // traffic quadruples in period 2
	cfg2.Seed = 2
	day2 := traffic.Generate(cfg2, iPer)
	hist := append(append([]float64{}, day1...), day2[:200]...)

	model := Model{Q: 0.95, PeriodIntervals: iPer}
	hybrid := &Predictor{Model: model, WarmupIntervals: 24}
	pureWindow := Percentile(hist[len(hist)-iPer:], model.Q)
	hybridPred := hybrid.PredictChargingVolume(hist)
	truth := Percentile(day2, model.Q)

	errHybrid := math.Abs(hybridPred - truth)
	errPure := math.Abs(pureWindow - truth)
	if errHybrid > errPure {
		t.Fatalf("hybrid error %v > pure sliding-window error %v", errHybrid, errPure)
	}
}

func TestPercentileMatchesSortDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		sorted := append([]float64(nil), v...)
		sort.Float64s(sorted)
		q := 0.95
		idx := int(math.Ceil(q*float64(n))) - 1
		if got := Percentile(v, q); got != sorted[idx] {
			t.Fatalf("trial %d: Percentile = %v, want %v", trial, got, sorted[idx])
		}
	}
}
