package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"p4p/internal/apptracker"
	"p4p/internal/topology"
)

func TestQuartilesFollowPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.N != 10 {
		t.Fatalf("got %+v", s)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if s := summarize([]float64{4, 1, 2}); s.Q1 != 1 || s.Median != 2 || s.Q3 != 4 {
		t.Fatalf("got %+v", s)
	}
	// statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
	if s := summarize([]float64{3, 5}); s.Q1 != 2.5 || s.Median != 4 || s.Q3 != 5.5 {
		t.Fatalf("got %+v", s)
	}
	if s := summarize([]float64{7}); s.Q1 != 7 || s.Median != 7 || s.Q3 != 7 || s.N != 1 {
		t.Fatalf("single value: got %+v", s)
	}
	if got := (summary{Median: 50, Q1: 45, Q3: 55}).spread(); got != 0.2 {
		t.Fatalf("spread %v, want 0.2", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	d := make([]time.Duration, 1000)
	for i := range d {
		d[i] = time.Duration(i + 1)
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 500}, {0.99, 990}, {0.999, 999}, {1, 1000}, {0.0001, 1}} {
		if got := percentile(d, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty sample: %v", got)
	}
}

// fakeClock only moves when told to: by Sleep, or by an op that takes time.
type fakeClock struct{ t time.Time }

func (f *fakeClock) Now() time.Time        { return f.t }
func (f *fakeClock) Sleep(d time.Duration) { f.t = f.t.Add(d) }

// A stall must be charged to every slot that fell due during it, not
// only to the op that stalled (no coordinated omission).
func TestOpenLoopChargesAStallToTheSlotsDueDuringIt(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	const (
		interval = 10 * time.Millisecond
		service  = time.Millisecond
		stall    = 50 * time.Millisecond
	)
	k := 0
	res := openCaller(clk, clk.Now(), interval, 10, time.Second, func() outcome {
		if k == 2 {
			clk.Sleep(stall)
		} else {
			clk.Sleep(service)
		}
		k++
		return outcome{ok: true}
	})
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	// Slot 2 stalls until t=70. Slots 3..6 fell due at 30, 40, 50, 60
	// and are sent back to back from t=70; slot 7 is on time again.
	wantLat := []time.Duration{ms(1), ms(1), ms(50), ms(41), ms(32), ms(23), ms(14), ms(5), ms(1), ms(1)}
	wantLate := []time.Duration{0, 0, 0, ms(40), ms(31), ms(22), ms(13), ms(4), 0, 0}
	if !reflect.DeepEqual(res.lat, wantLat) {
		t.Errorf("latencies %v, want %v", res.lat, wantLat)
	}
	if !reflect.DeepEqual(res.late, wantLate) {
		t.Errorf("lateness %v, want %v", res.late, wantLate)
	}
	if res.attempted != 10 || res.failed != 0 {
		t.Errorf("attempted %d failed %d", res.attempted, res.failed)
	}
}

func TestOpenLoopCountsFailedAndUncountedSlots(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	k := 0
	res := openCaller(clk, clk.Now(), time.Millisecond, 6, time.Second, func() outcome {
		k++
		switch k {
		case 1:
			return outcome{ok: true, uncounted: true} // a price update: timed elsewhere, not an op
		case 2:
			return outcome{ok: false}
		}
		return outcome{ok: true}
	})
	if res.attempted != 5 || res.failed != 1 || len(res.lat) != 4 || len(res.late) != 6 {
		t.Fatalf("attempted %d failed %d latencies %d lateness %d", res.attempted, res.failed, len(res.lat), len(res.late))
	}
}

func TestOpenLoopRefusesSlotsItCannotSendInTime(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	res := openCaller(clk, clk.Now(), time.Millisecond, 100, 10*time.Millisecond, func() outcome {
		clk.Sleep(5 * time.Millisecond) // five times slower than the offered rate
		return outcome{ok: true}
	})
	if res.attempted != 100 || res.failed == 0 || res.failed+len(res.lat) != 100 {
		t.Fatalf("attempted %d failed %d completed %d", res.attempted, res.failed, len(res.lat))
	}
}

func TestSelfTimeOnAHandBuiltTree(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Op: 1, Name: spanGenOp, Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: spanClientFetch, Start: 10, End: 90},
		{ID: 3, Parent: 2, Op: 1, Name: spanWire, Start: 20, End: 80},
		{ID: 4, Parent: 3, Op: 1, Name: spanSrvRouter, Start: 30, End: 70},
		// Two shard fetches in parallel, overlapping on [45,55].
		{ID: 5, Parent: 4, Op: 1, Name: spanWire, Start: 35, End: 55},
		{ID: 6, Parent: 4, Op: 1, Name: spanWire, Start: 45, End: 65},
		{ID: 7, Parent: 1, Op: 1, Name: spanGenCheck, Start: 90, End: 98},
		// A second root with a child that outlives it: clipped.
		{ID: 8, Parent: 0, Op: 2, Name: spanGenOp, Start: 200, End: 220},
		{ID: 9, Parent: 8, Op: 2, Name: spanClientFetch, Start: 205, End: 230},
	}
	want := []int64{12, 20, 20, 10, 20, 20, 8, 5, 25}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	sum := summarizeTrace(spans, spanGenOp)
	if st := sum.layers[spanWire]; st.Count != 3 || st.SelfNs != 60 || st.DurNs != 100 {
		t.Errorf("wire layer %+v", st)
	}
	// Descendants: 20+20+10+20+20+8 on op 1, 25 on op 2; roots last 120.
	if want := 123.0 / 120.0; sum.accounted != want {
		t.Errorf("accounted %v, want %v", sum.accounted, want)
	}
}

func TestSpanHeaderRoundTrip(t *testing.T) {
	ref := spanRef{id: 4242, op: 17}
	if got := parseSpanHeader(ref.header()); got != ref {
		t.Fatalf("got %+v", got)
	}
	for _, bad := range []string{"", "12", "a.b", "1.2.3x"} {
		if got := parseSpanHeader(bad); got != (spanRef{}) {
			t.Errorf("parseSpanHeader(%q) = %+v", bad, got)
		}
	}
	var off *recorder
	l := off.beginRoot(spanGenOp)
	off.end(l, "")
	if off.snapshot() != nil || l.id != 0 {
		t.Error("a nil recorder must record nothing")
	}
}

// generated is everything a seed decides.
func generated(t *testing.T, seed int64) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var out [][]byte
	sched := []byte(fmt.Sprint(steadySchedule(rng, 256)))
	g := topology.AbileneVirtualISPs()
	eng := newPortalEngine(g)
	batches, err := batchPool(rng, eng.Matrix(g.AggregationPIDs()))
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, sched)
	for _, b := range batches {
		out = append(out, b.body)
	}
	selects, err := selectPool(rng, g, 4, selectCandidates)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range selects {
		out = append(out, q.body)
	}
	loads, err := json.Marshal(loadPool(rng, g, 4))
	if err != nil {
		t.Fatal(err)
	}
	return append(out, loads)
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b, c := generated(t, 7), generated(t, 7), generated(t, 8)
	if len(a) != len(b) || len(a) != len(c) {
		t.Fatal("input sets differ in size")
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Errorf("input %d differs between two runs of seed 7", i)
		}
		if bytes.Equal(a[i], c[i]) {
			t.Errorf("input %d is the same under seeds 7 and 8", i)
		}
	}
}

// The bench's /select must speak cmd/apptracker's JSON.
func TestSelectWireShape(t *testing.T) {
	req, err := json.Marshal(selectRequest{
		Self:       apptracker.Node{ID: 1, PID: 2, ASN: 3},
		Candidates: []apptracker.Node{{ID: 4, PID: 5, ASN: 6}},
		M:          20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"self":{"ID":1,"PID":2,"ASN":3},"candidates":[{"ID":4,"PID":5,"ASN":6}],"m":20}`; string(req) != want {
		t.Errorf("request %s, want %s", req, want)
	}
	resp, err := json.Marshal(selectResponse{Indices: []int{}, Policy: "p4p"})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"indices":[],"policy":"p4p"}`; string(resp) != want {
		t.Errorf("response %s, want %s", resp, want)
	}
	if e, _ := json.Marshal(errorResponse{Error: "x"}); string(e) != `{"error":"x"}` {
		t.Errorf("error envelope %s", e)
	}
}

func TestWorsening(t *testing.T) {
	if got := worsening("higher", 100, 80); got != 0.2 {
		t.Errorf("throughput fell by %v, want 0.2", got)
	}
	if got := worsening("lower", 100, 125); got != 0.25 {
		t.Errorf("latency rose by %v, want 0.25", got)
	}
	if got := worsening("lower", 100, 90); got != -0.1 {
		t.Errorf("an improvement reads %v, want -0.1", got)
	}
}

// TestSmoke runs the whole benchmark in its smoke shape: every workload
// once, every oracle and mechanism check, the traced pass with every
// probe. It checks the benchmark, not the program's speed.
func TestSmoke(t *testing.T) {
	c, err := readContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	rep := &report{Machine: stampMachine(), Seed: 7, Smoke: true}
	for _, name := range workloadOrder {
		if !c.hasWorkload(name) {
			t.Errorf("BENCHMARK.json lacks workload %s", name)
		}
		res, err := runWorkload(name, 7, shapeFor(name, 1, 0, true))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted < 1 {
			t.Errorf("%s: attempted %d, failed %d, problems %v", name, res.Attempted, res.Failed, res.Problems)
		}
		for _, m := range c.EndToEnd {
			if v := res.Metrics[m.Name]; !(v.Median > 0) || v.Unit != m.Unit || v.Better != m.Better {
				t.Errorf("%s: %s = %+v, BENCHMARK.json says %s, %s", name, m.Name, v, m.Unit, m.Better)
			}
		}
		rep.Workloads = append(rep.Workloads, res)
	}
	for _, d := range endToEnd {
		if _, bounded := c.endToEnd(d.Name); !bounded && d.Name != "p99_us" {
			t.Errorf("BENCHMARK.json does not bound %s", d.Name)
		}
	}
	tr, err := runTraced(wlFed, 7, 1, true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Correct {
		t.Errorf("traced run: failed %d, problems %v", tr.Failed, tr.Problems)
	}
	for _, m := range c.PerLayer {
		if _, ok := tr.Metrics[m.Name]; !ok {
			t.Errorf("traced run does not report %s", m.Name)
		}
	}
	if len(tr.Metrics) != len(c.PerLayer) {
		t.Errorf("traced run reports %d metrics, BENCHMARK.json lists %d", len(tr.Metrics), len(c.PerLayer))
	}
	if len(tr.TraceFiles) != len(workloadOrder) {
		t.Errorf("trace files %v", tr.TraceFiles)
	}
	// A result compared with itself is within every bound.
	if code := compareReports(c, rep, rep); code != 0 {
		t.Errorf("a result compared with itself exits %d", code)
	}
}
