package experiments

import (
	"math"
	"strings"
	"testing"

	"p4p/internal/topology"
)

// Experiment tests run at small scale: they assert the paper's shape
// (who wins, direction of effects), not absolute numbers. Full-scale
// runs live in bench_test.go and EXPERIMENTS.md.

func TestOptionsValidation(t *testing.T) {
	for _, scale := range []float64{2, -0.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("scale %v: expected panic for out-of-range scale", scale)
				}
			}()
			Options{Scale: scale}.withDefaults()
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("parallelism -1: expected panic for a negative worker count")
			}
		}()
		Options{Scale: 0.5, Parallelism: -1}.withDefaults()
	}()
}

func TestOptionsScaled(t *testing.T) {
	o := Options{Scale: 0.1}.withDefaults()
	if o.scaled(100) != 10 {
		t.Fatalf("scaled(100) = %d", o.scaled(100))
	}
	if o.scaled(3) != 1 {
		t.Fatal("scaled must floor at 1")
	}
}

func TestReportWriteTo(t *testing.T) {
	rep := newReport("T0", "test report")
	rep.note("a note")
	rep.Values["x"] = 1.5
	rep.Series["s"] = [][2]float64{{1, 2}}
	var b strings.Builder
	if _, err := rep.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"T0", "test report", "a note", "x", "series s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestTable1(t *testing.T) {
	rep := runID(t, "T1", Options{})
	if rep.Values["nodes/Abilene"] != 11 || rep.Values["nodes/ISP-B"] != 52 {
		t.Fatalf("Table 1 values wrong: %v", rep.Values)
	}
}

func TestFigure6Shape(t *testing.T) {
	rep := runID(t, "F6", Options{Scale: 0.6, Seed: 42})
	// The ISP objective must be achieved: P4P carries the least traffic
	// on the protected circuit.
	if rep.Values["bottleneck-ratio/native-vs-p4p"] < 1.3 {
		t.Fatalf("native/p4p bottleneck ratio %v, want > 1.3 (paper > 3)", rep.Values["bottleneck-ratio/native-vs-p4p"])
	}
	if rep.Values["bottleneck-mb/p4p"] >= rep.Values["bottleneck-mb/localized"] {
		t.Fatalf("p4p bottleneck %v not below localized %v",
			rep.Values["bottleneck-mb/p4p"], rep.Values["bottleneck-mb/localized"])
	}
	// All three swarms completed.
	for _, p := range []string{"native", "localized", "p4p"} {
		if rep.Values["mean-completion/"+p] <= 0 {
			t.Fatalf("%s did not complete", p)
		}
	}
}

func TestFigure9Shape(t *testing.T) {
	rep := runID(t, "F9", Options{Scale: 1, Seed: 7})
	// P4P cuts backbone volume while holding goodput (Figure 9).
	if rep.Values["backbone-reduction-pct"] < 10 {
		t.Fatalf("backbone reduction %v%%, want >= 10 (paper ~60)", rep.Values["backbone-reduction-pct"])
	}
	gN, gP := rep.Values["goodput-kbps/native"], rep.Values["goodput-kbps/p4p"]
	if gP < 0.9*gN {
		t.Fatalf("p4p goodput %v dropped vs native %v", gP, gN)
	}
}

func TestFigure10Shape(t *testing.T) {
	rep := runID(t, "F10", Options{Scale: 0.5, Seed: 42})
	if rep.Values["charge-ratio-circuit2/native-vs-p4p"] < 1.3 {
		t.Fatalf("native/p4p circuit-2 charge ratio %v, want > 1.3 (paper 3)",
			rep.Values["charge-ratio-circuit2/native-vs-p4p"])
	}
	// P4P routes its residual crossing traffic over the roomier circuit.
	if rep.Values["charging-mb/p4p/circuit2"] > rep.Values["charging-mb/p4p/circuit1"] {
		t.Fatal("p4p should protect the tight circuit 2 harder than circuit 1")
	}
}

func TestFieldTestReports(t *testing.T) {
	opt := Options{Scale: 0.25, Seed: 42}
	t2 := runID(t, "T2", opt)
	if r := t2.Values["ratio/ext->ext"]; r < 0.8 || r > 1.25 {
		t.Fatalf("ext<->ext ratio %v, want ~1", r)
	}
	if t2.Values["ratio/ispb->ispb"] > 0.8 {
		t.Fatalf("ISP-B internal concentration ratio %v, want well below 1", t2.Values["ratio/ispb->ispb"])
	}
	t3 := runID(t, "T3", opt)
	if t3.Values["localization-pct/P4P"] <= t3.Values["localization-pct/Native"] {
		t.Fatal("P4P must localize more than native")
	}
	f12a := runID(t, "F12a", opt)
	if f12a.Values["unit-bdp-reduction"] < 2 {
		t.Fatalf("unit BDP reduction %v, want >= 2 (paper ~6)", f12a.Values["unit-bdp-reduction"])
	}
	f12b := runID(t, "F12b", opt)
	if f12b.Values["improvement-pct"] <= 0 {
		t.Fatalf("completion improvement %v%%, want positive (paper 23)", f12b.Values["improvement-pct"])
	}
	f12c := runID(t, "F12c", opt)
	if f12c.Values["native-over-p4p"] <= 1 {
		t.Fatalf("FTTP native/p4p %v, want > 1 (paper 1.68)", f12c.Values["native-over-p4p"])
	}
	f11 := runID(t, "F11", opt)
	if f11.Values["peak-day/native"] > 3 {
		t.Fatalf("native swarm peaked at day %v, want within 3", f11.Values["peak-day/native"])
	}
	x1 := runID(t, "X1", opt)
	if x1.Values["metro-hops/p4p"] >= x1.Values["metro-hops/native"] {
		t.Fatal("metro hops must fall under P4P")
	}
}

func TestSuperGradientConvergenceShape(t *testing.T) {
	rep := runID(t, "X2", Options{Scale: 0.6, Seed: 17})
	bound, mlu := rep.Values["certified-lower-bound"], rep.Values["decomposed-avg-mlu"]
	if !(bound > 0 && bound <= mlu) {
		t.Fatalf("certified lower bound %v, want in (0, %v], the decomposed MLU", bound, mlu)
	}
	if rep.Values["certified-gap-ratio"] > 1.35 {
		t.Fatalf("certified decomposition gap %v, want <= 1.35", rep.Values["certified-gap-ratio"])
	}
}

func TestChargingPredictionShape(t *testing.T) {
	rep := runID(t, "X3", Options{Seed: 42})
	// The hybrid predictor must beat the pure sliding window on the
	// large downward level shift (the paper's failure case).
	if rep.Values["hybrid-err-pct/shift=0.25"] >= rep.Values["sliding-err-pct/shift=0.25"] {
		t.Fatalf("hybrid %v%% not better than sliding %v%%",
			rep.Values["hybrid-err-pct/shift=0.25"], rep.Values["sliding-err-pct/shift=0.25"])
	}
}

func TestSwarmTailShape(t *testing.T) {
	rep := runID(t, "X4", Options{Seed: 42})
	pct := rep.Values["over-100-leechers-pct"]
	// Paper: 0.72%.
	if pct < 0.4 || pct > 1.1 {
		t.Fatalf("tail percentage %v, want ~0.72", pct)
	}
}

func TestAblationBetaShape(t *testing.T) {
	rep := runID(t, "A1", Options{Seed: 42})
	// Cost must fall monotonically as beta relaxes.
	prev := rep.Values["cost-gbps/beta=1.0"]
	for _, b := range []string{"0.9", "0.8", "0.7", "0.6", "0.5"} {
		cur := rep.Values["cost-gbps/beta="+b]
		if cur > prev+1e-9 {
			t.Fatalf("cost rose when beta relaxed to %s: %v > %v", b, cur, prev)
		}
		prev = cur
	}
	if rep.Values["shipped-frac/beta=1.0"] < 0.999 {
		t.Fatalf("beta=1 shipped %v of OPT, want 1", rep.Values["shipped-frac/beta=1.0"])
	}
}

func TestAblationAggregationShape(t *testing.T) {
	rep := runID(t, "A3", Options{Scale: 0.5, Seed: 42})
	if rep.Values["view-cells-ratio"] < 100 {
		t.Fatalf("view-cells ratio %v, want orders of magnitude", rep.Values["view-cells-ratio"])
	}
	if rep.Values["query-ratio"] < 10 {
		t.Fatalf("query ratio %v, want large", rep.Values["query-ratio"])
	}
}

func TestAblationConcaveShape(t *testing.T) {
	rep := runID(t, "A2", Options{Scale: 0.4, Seed: 42})
	// The concave transform must spread selection across source PIDs.
	if rep.Values["max-pid-share/gamma=0.5"] > rep.Values["max-pid-share/gamma=1.0"] {
		t.Fatalf("gamma=0.5 share %v not flatter than gamma=1.0 %v",
			rep.Values["max-pid-share/gamma=0.5"], rep.Values["max-pid-share/gamma=1.0"])
	}
}

// TestPIDSumsIgnoreMapOrder: sums over Result.PIDBytes must not take
// Go's randomised map order, or their last bits move from call to call.
// A2's max-pid-share sums in key order and IntraPIDBytes is summed as
// flows tear down; on this swarm a map-order sum of either takes
// several bit patterns in 200 calls.
func TestPIDSumsIgnoreMapOrder(t *testing.T) {
	g := topology.Abilene()
	res := intradomainCell(policyP4P, g, topology.ComputeRouting(g), 300, 16<<20, 1e9, 1, 1.0).Run()
	share := maxSourcePIDShare(res.PIDBytes)
	for i := 0; i < 200; i++ {
		if got := maxSourcePIDShare(res.PIDBytes); math.Float64bits(got) != math.Float64bits(share) {
			t.Fatalf("call %d: max-pid-share %v, first call %v", i, got, share)
		}
	}
	diag := 0.0
	for key, b := range res.PIDBytes {
		if key[0] == key[1] {
			diag += b
		}
	}
	if math.Abs(res.IntraPIDBytes-diag) > 1e-9*diag || diag == 0 {
		t.Fatalf("IntraPIDBytes %v, diagonal of PIDBytes %v", res.IntraPIDBytes, diag)
	}
}
