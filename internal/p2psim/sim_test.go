package p2psim

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"p4p/internal/apptracker"
	"p4p/internal/topology"
)

// buildSwarm sets up a simulation on Abilene with one seed and n
// leechers spread round-robin across PIDs.
func buildSwarm(t *testing.T, sel apptracker.Selector, n int, seed int64, mutate func(*Config)) (*Sim, *topology.Graph) {
	t.Helper()
	g := topology.Abilene()
	r := topology.ComputeRouting(g)
	cfg := Config{
		Graph:     g,
		Routing:   r,
		Selector:  sel,
		Seed:      seed,
		FileBytes: 4 << 20, // small file keeps tests fast
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s := New(cfg)
	pids := g.AggregationPIDs()
	s.AddClient(ClientSpec{PID: pids[0], ASN: 11537, UpBps: 10e6, DownBps: 10e6, IsSeed: true})
	for i := 0; i < n; i++ {
		s.AddClient(ClientSpec{
			PID:     pids[i%len(pids)],
			ASN:     11537,
			UpBps:   5e6,
			DownBps: 20e6,
			JoinAt:  float64(i) * 2,
		})
	}
	return s, g
}

func TestSwarmCompletes(t *testing.T) {
	s, _ := buildSwarm(t, apptracker.Random{}, 20, 1, nil)
	res := s.Run()
	ct := res.CompletionTimes()
	if len(ct) != 20 {
		t.Fatalf("%d clients completed, want 20", len(ct))
	}
	for _, v := range ct {
		if v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("bad completion time %v", v)
		}
	}
	if res.SwarmCompletionTime() < res.MeanCompletionTime() {
		t.Fatal("max completion below mean")
	}
}

func TestByteConservation(t *testing.T) {
	const n = 15
	s, _ := buildSwarm(t, apptracker.Random{}, n, 2, nil)
	res := s.Run()
	want := float64(n) * float64(4<<20)
	if math.Abs(res.TotalBytes-want) > 1 {
		t.Fatalf("TotalBytes = %v, want %v", res.TotalBytes, want)
	}
	// PID-pair matrix must sum to the same total.
	pidSum := 0.0
	for _, v := range res.PIDBytes {
		pidSum += v
	}
	if math.Abs(pidSum-want) > 1 {
		t.Fatalf("PIDBytes sum = %v, want %v", pidSum, want)
	}
	// Per-link bytes must equal UnitBDP x total (each byte counted once
	// per backbone hop).
	linkSum := 0.0
	for _, v := range res.LinkBytes {
		linkSum += v
	}
	if math.Abs(linkSum-res.UnitBDP*res.TotalBytes) > 1 {
		t.Fatalf("Σ linkBytes %v != UnitBDP x total %v", linkSum, res.UnitBDP*res.TotalBytes)
	}
}

func TestDeterminism(t *testing.T) {
	s1, _ := buildSwarm(t, apptracker.Random{}, 12, 7, nil)
	s2, _ := buildSwarm(t, apptracker.Random{}, 12, 7, nil)
	r1, r2 := s1.Run(), s2.Run()
	if r1.TotalBytes != r2.TotalBytes || r1.UnitBDP != r2.UnitBDP {
		t.Fatal("simulation is not deterministic")
	}
	c1, c2 := r1.CompletionTimes(), r2.CompletionTimes()
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatal("completion times differ between identical runs")
		}
	}
}

func TestSeedVariesOutcome(t *testing.T) {
	s1, _ := buildSwarm(t, apptracker.Random{}, 12, 7, nil)
	s2, _ := buildSwarm(t, apptracker.Random{}, 12, 8, nil)
	r1, r2 := s1.Run(), s2.Run()
	if r1.UnitBDP == r2.UnitBDP && r1.MeanCompletionTime() == r2.MeanCompletionTime() {
		t.Fatal("different seeds produced identical outcomes; RNG unused?")
	}
}

func TestLocalizedReducesBDP(t *testing.T) {
	g := topology.Abilene()
	r := topology.ComputeRouting(g)
	delay := func(a, b apptracker.Node) float64 {
		return r.PropagationDelaySeconds(a.PID, b.PID)
	}
	random, _ := buildSwarm(t, apptracker.Random{}, 30, 3, nil)
	localized, _ := buildSwarm(t, &apptracker.Localized{Delay: delay}, 30, 3, nil)
	rr, rl := random.Run(), localized.Run()
	if rl.UnitBDP >= rr.UnitBDP {
		t.Fatalf("localized UnitBDP %v not below random %v", rl.UnitBDP, rr.UnitBDP)
	}
}

func TestIntraPIDTrafficSkipsBackbone(t *testing.T) {
	// Everyone in one PID: no backbone traffic at all.
	g := topology.Abilene()
	r := topology.ComputeRouting(g)
	s := New(Config{Graph: g, Routing: r, Selector: apptracker.Random{}, Seed: 4, FileBytes: 1 << 20})
	pid := g.AggregationPIDs()[0]
	s.AddClient(ClientSpec{PID: pid, ASN: 1, UpBps: 10e6, DownBps: 10e6, IsSeed: true})
	for i := 0; i < 6; i++ {
		s.AddClient(ClientSpec{PID: pid, ASN: 1, UpBps: 5e6, DownBps: 5e6})
	}
	res := s.Run()
	if res.UnitBDP != 0 {
		t.Fatalf("intra-PID swarm has UnitBDP %v, want 0", res.UnitBDP)
	}
	for i, v := range res.LinkBytes {
		if v != 0 {
			t.Fatalf("backbone link %d carried %v bytes", i, v)
		}
	}
	if res.IntraPIDBytes != res.TotalBytes {
		t.Fatal("intra-PID bytes should equal total")
	}
}

func TestSamplesRecorded(t *testing.T) {
	s, _ := buildSwarm(t, apptracker.Random{}, 10, 5, func(c *Config) {
		c.SampleInterval = 5
	})
	res := s.Run()
	if len(res.Samples) == 0 {
		t.Fatal("no samples recorded")
	}
	for _, smp := range res.Samples {
		if smp.MaxUtil < 0 || smp.MaxUtil > 1.5 {
			t.Fatalf("implausible utilization %v", smp.MaxUtil)
		}
	}
}

// TestMeasureHookFires also checks that no measured rate is negative:
// the per-link running sums drift a few ulps below zero on idle links
// (hundreds of times in this 40-client run), and core.Engine refuses a
// negative observation.
func TestMeasureHookFires(t *testing.T) {
	calls := 0
	s, _ := buildSwarm(t, apptracker.Random{}, 40, 6, func(c *Config) {
		c.MeasureInterval = 2
		c.OnMeasure = func(now float64, rates []float64) {
			calls++
			for _, v := range rates {
				if v < 0 {
					t.Fatal("negative measured rate")
				}
			}
		}
	})
	s.Run()
	if calls == 0 {
		t.Fatal("OnMeasure never fired")
	}
}

func TestLedgerAccounting(t *testing.T) {
	g := topology.Abilene()
	r := topology.ComputeRouting(g)
	pids := g.AggregationPIDs()
	// Two clients on opposite coasts; ledger on every link of the path.
	path := r.Path(pids[0], pids[10])
	s := New(Config{
		Graph: g, Routing: r, Selector: apptracker.Random{}, Seed: 9,
		FileBytes:    1 << 20,
		WatchLedgers: &LedgerConfig{Links: path, IntervalSec: 60},
	})
	s.AddClient(ClientSpec{PID: pids[0], ASN: 1, UpBps: 10e6, DownBps: 10e6, IsSeed: true})
	s.AddClient(ClientSpec{PID: pids[10], ASN: 1, UpBps: 5e6, DownBps: 5e6})
	res := s.Run()
	led := res.Ledgers[path[0]]
	if led == nil {
		t.Fatal("missing ledger")
	}
	if math.Abs(led.Total()-float64(1<<20)) > 1 {
		t.Fatalf("ledger total = %v, want %v", led.Total(), 1<<20)
	}
}

func TestMaxTimeStops(t *testing.T) {
	s, _ := buildSwarm(t, apptracker.Random{}, 10, 11, func(c *Config) {
		c.MaxTime = 5 // far too short to finish
	})
	res := s.Run()
	if res.Duration > 5 {
		t.Fatalf("sim ran past MaxTime: %v", res.Duration)
	}
	if len(res.CompletionTimes()) != 0 {
		t.Fatal("no client should have finished in 5 s")
	}
}

// TestFarFutureEventsWaitTheirTurn: a periodic event or a join so far
// ahead that it falls past MaxTime leaves a run exactly as if it were
// off. Times like these once overflowed an event queue's slot
// arithmetic and popped first, ending the run at once with nobody done.
func TestFarFutureEventsWaitTheirTurn(t *testing.T) {
	// A client that never joins keeps the run going to MaxTime, so keep
	// that short.
	run := func(set func(*Config), lateJoin float64) string {
		s, g := buildSwarm(t, apptracker.Random{}, 30, 3, func(c *Config) {
			c.MaxTime = 1000
			if set != nil {
				set(c)
			}
		})
		if lateJoin > 0 {
			s.AddClient(ClientSpec{PID: g.AggregationPIDs()[1], ASN: 11537, UpBps: 5e6, DownBps: 20e6, JoinAt: lateJoin})
		}
		return s.Run().Fingerprint()
	}
	off := run(nil, 0)
	if !strings.HasPrefix(off, "30/30 ") {
		t.Fatalf("baseline run: %s, want all 30 done", off)
	}
	for _, far := range []float64{math.Inf(1), 1e300} {
		for name, set := range map[string]func(*Config){
			"ReselectInterval": func(c *Config) { c.ReselectInterval = far },
			"MeasureInterval":  func(c *Config) { c.MeasureInterval = far },
			"SampleInterval":   func(c *Config) { c.SampleInterval = far },
		} {
			if got := run(set, 0); got != off {
				t.Errorf("%s %g: %s, want %s as with it off", name, far, got, off)
			}
		}
	}
	if got, want := run(nil, 1e300), run(nil, 1e4); got != want || !strings.HasPrefix(got, "30/31 ") {
		t.Errorf("a client joining at 1e300: %s, want %s as at 1e4, past MaxTime", got, want)
	}
}

// TestConfigValidation pins a panic naming the bad field for a missing
// part and for each value that would otherwise hang Run, crash deep
// inside it, or poison the metrics.
func TestConfigValidation(t *testing.T) {
	g := topology.Abilene()
	r := topology.ComputeRouting(g)
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		field  string
		cfg    func(*Config)
		client func(*ClientSpec)
	}{
		{"Graph", func(c *Config) { c.Graph = nil }, nil},
		{"Selector", func(c *Config) { c.Selector = nil }, nil},
		{"UpBps", nil, func(c *ClientSpec) { c.UpBps = 0 }},
		{"PieceBytes", func(c *Config) { c.PieceBytes = -1 }, nil},
		{"FileBytes", func(c *Config) { c.FileBytes = -5 }, nil},
		{"UpBps", nil, func(c *ClientSpec) { c.UpBps = nan }},
		{"DownBps", nil, func(c *ClientSpec) { c.DownBps = inf }},
		// 5e-324 bytes/s: every finish time would be +Inf.
		{"UpBps", nil, func(c *ClientSpec) { c.UpBps = 4e-323 }},
		{"DownBps", nil, func(c *ClientSpec) { c.DownBps = 4e-323 }},
		{"JoinAt", nil, func(c *ClientSpec) { c.JoinAt = nan }},
		{"JoinAt", nil, func(c *ClientSpec) { c.JoinAt = -1 }},
		{"JoinAt", nil, func(c *ClientSpec) { c.JoinAt = inf }},
	} {
		msg := func() (msg string) {
			defer func() { msg, _ = recover().(string) }()
			cfg := Config{Graph: g, Routing: r, Selector: apptracker.Random{}, Seed: 1, MaxTime: 1000}
			if tc.cfg != nil {
				tc.cfg(&cfg)
			}
			s := New(cfg)
			s.AddClient(ClientSpec{PID: g.AggregationPIDs()[0], ASN: 11537, UpBps: 10e6, DownBps: 10e6, IsSeed: true})
			spec := ClientSpec{PID: g.AggregationPIDs()[1], ASN: 11537, UpBps: 5e6, DownBps: 20e6}
			if tc.client != nil {
				tc.client(&spec)
			}
			s.AddClient(spec)
			return ""
		}()
		if !strings.Contains(msg, tc.field) {
			t.Errorf("%s: panic %q does not name the field", tc.field, msg)
		}
	}
}

// TestTieDrawMatchesIntn holds tieDraw to rng.Intn(n) == 0 on twin
// RNGs: the same answers and the same number of draws, so the next
// Int63 agrees. The n cover every tie count a 1 GB file of 256 KiB
// pieces reaches, the powers of two and their neighbours up to 2³¹−1,
// and n near 2³⁰+1, where about half the draws are rejected.
func TestTieDrawMatchesIntn(t *testing.T) {
	var ns []int32
	for n := int32(1); n <= 4096; n++ {
		ns = append(ns, n)
	}
	for k := 12; k <= 31; k++ {
		ns = append(ns, int32(1<<k-1))
		if k < 31 {
			ns = append(ns, 1<<k, 1<<k+1)
		}
	}
	for d := int32(-2); d <= 3; d++ {
		ns = append(ns, 1<<30+d)
	}
	for i, n := range ns {
		checkTieDraw(t, int64(i), n, 64)
	}
}

// FuzzTieDrawMatchesIntn is TestTieDrawMatchesIntn over fuzzed seeds and n.
func FuzzTieDrawMatchesIntn(f *testing.F) {
	for _, n := range []int32{1, 3, 7, 48, 1024, 1<<30 + 1, math.MaxInt32} {
		f.Add(int64(n), n)
	}
	f.Fuzz(func(t *testing.T, seed int64, n int32) {
		if n <= 0 {
			t.Skip()
		}
		checkTieDraw(t, seed, n, 256)
	})
}

func checkTieDraw(t *testing.T, seed int64, n int32, draws int) {
	t.Helper()
	ref, got := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	m := lemireM(uint32(n))
	for i := 0; i < draws; i++ {
		if want, have := ref.Intn(int(n)) == 0, tieDraw(got, n, m); want != have {
			t.Fatalf("seed %d n %d draw %d: tieDraw %v, Intn(n) == 0 %v", seed, n, i, have, want)
		}
	}
	if want, have := ref.Int63(), got.Int63(); want != have {
		t.Fatalf("seed %d n %d: streams diverged after %d draws (next Int63 %d, want %d)", seed, n, draws, have, want)
	}
}

func TestStreamingDeliversData(t *testing.T) {
	g := topology.Abilene()
	r := topology.ComputeRouting(g)
	pids := g.AggregationPIDs()
	s := New(Config{
		Graph: g, Routing: r, Selector: apptracker.Random{}, Seed: 12,
		PieceBytes: 64 << 10,
		MaxTime:    120,
		Streaming:  &StreamingConfig{RateBps: 400e3, ContentSec: 600, WindowSec: 30},
	})
	s.AddClient(ClientSpec{PID: pids[0], ASN: 1, UpBps: 20e6, DownBps: 20e6, IsSeed: true})
	for i := 0; i < 8; i++ {
		s.AddClient(ClientSpec{PID: pids[(i+1)%len(pids)], ASN: 1, UpBps: 4e6, DownBps: 4e6})
	}
	res := s.Run()
	if res.Duration < 119 {
		t.Fatalf("streaming run ended early at %v", res.Duration)
	}
	if res.TotalBytes <= 0 {
		t.Fatal("no streaming bytes delivered")
	}
	// Streaming clients never complete.
	if got := len(res.CompletionTimes()); got != 0 {
		t.Fatalf("%d streaming clients 'completed'", got)
	}
	// Delivered volume cannot exceed published content times receivers.
	published := res.Duration * 400e3 / 8
	if res.TotalBytes > published*8*1.01 {
		t.Fatalf("delivered %v bytes > plausible bound", res.TotalBytes)
	}
}

func TestStreamingThroughputNearStreamRate(t *testing.T) {
	// With ample capacity every client should receive close to the
	// stream rate once warmed up.
	g := topology.Abilene()
	r := topology.ComputeRouting(g)
	pids := g.AggregationPIDs()
	s := New(Config{
		Graph: g, Routing: r, Selector: apptracker.Random{}, Seed: 13,
		PieceBytes: 64 << 10,
		MaxTime:    300,
		Streaming:  &StreamingConfig{RateBps: 400e3, ContentSec: 600, WindowSec: 60},
	})
	s.AddClient(ClientSpec{PID: pids[0], ASN: 1, UpBps: 50e6, DownBps: 50e6, IsSeed: true})
	const n = 6
	for i := 0; i < n; i++ {
		s.AddClient(ClientSpec{PID: pids[(i+1)%len(pids)], ASN: 1, UpBps: 10e6, DownBps: 10e6})
	}
	res := s.Run()
	perClient := res.TotalBytes / n
	goodput := perClient * 8 / res.Duration
	if goodput < 0.5*400e3 {
		t.Fatalf("mean goodput %v bps, want >= half the stream rate", goodput)
	}
}

// TestStreamingConfigReusable pins that a Config holds no run state: a
// second simulation built from the same Config (and so the same
// *StreamingConfig) repeats the first.
func TestStreamingConfigReusable(t *testing.T) {
	g := topology.Abilene()
	cfg := Config{
		Graph: g, Routing: topology.ComputeRouting(g), Selector: apptracker.Random{}, Seed: 7,
		PieceBytes: 64 << 10,
		MaxTime:    120, // past the end of the content: the first run publishes all of it
		Streaming:  &StreamingConfig{RateBps: 400e3, ContentSec: 60, WindowSec: 30},
	}
	run := func() *Result {
		s := New(cfg)
		pids := g.AggregationPIDs()
		s.AddClient(ClientSpec{PID: pids[0], ASN: 1, UpBps: 20e6, DownBps: 20e6, IsSeed: true})
		for j := 0; j < 12; j++ {
			s.AddClient(ClientSpec{PID: pids[(j+1)%len(pids)], ASN: 1, UpBps: 4e6, DownBps: 4e6})
		}
		return s.Run()
	}
	first, second := run(), run()
	if first.TotalBytes <= 0 {
		t.Fatal("first run delivered nothing")
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("second run from the same Config differs: %v bytes, then %v", first.TotalBytes, second.TotalBytes)
	}
}

// reselectionSelector switches from random to strictly-local selection
// partway through the run, so the test can observe connections being
// replaced.
type reselectionSelector struct {
	local bool
}

func (r *reselectionSelector) Name() string { return "test-switch" }

func (r *reselectionSelector) Select(self apptracker.Node, cands []apptracker.Node, m int, rng *rand.Rand) []int {
	var out []int
	// Local candidates first (when enabled), then fill with the rest so
	// connectivity is preserved.
	if r.local {
		for i, c := range cands {
			if c.ID != self.ID && c.PID == self.PID && len(out) < m {
				out = append(out, i)
			}
		}
	}
	for i, c := range cands {
		if c.ID == self.ID || len(out) >= m {
			break
		}
		dup := false
		for _, j := range out {
			if j == i {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, i)
		}
	}
	return out
}

func TestReselectionReplacesConnections(t *testing.T) {
	g := topology.Abilene()
	r := topology.ComputeRouting(g)
	sel := &reselectionSelector{}
	s := New(Config{
		Graph: g, Routing: r, Selector: sel, Seed: 3,
		FileBytes:        4 << 20,
		ReselectInterval: 5,
		NeighborTarget:   8, // leaves room for cross-PID links after locals
		MaxTime:          5000,
	})
	pids := g.AggregationPIDs()
	// Two PIDs, with the seed and half the clients at each.
	s.AddClient(ClientSpec{PID: pids[0], ASN: 1, UpBps: 10e6, DownBps: 10e6, IsSeed: true})
	for i := 0; i < 10; i++ {
		s.AddClient(ClientSpec{PID: pids[i%2], ASN: 1, UpBps: 5e6, DownBps: 20e6})
	}
	// Local-preferred selection plus periodic reselection: connections
	// churn as the candidate set grows while the swarm still completes.
	sel.local = true
	res := s.Run()
	if got := len(res.CompletionTimes()); got != 10 {
		t.Fatalf("%d of 10 clients completed under reselection churn", got)
	}
}

// dupSelector returns each of Random's picks twice.
type dupSelector struct{}

func (dupSelector) Name() string { return "dup" }

func (dupSelector) Select(self apptracker.Node, cands []apptracker.Node, m int, rng *rand.Rand) []int {
	var out []int
	for _, i := range (apptracker.Random{}).Select(self, cands, m, rng) {
		out = append(out, i, i)
	}
	return out
}

// TestDuplicatePicksConnectOnce: connect does not deduplicate, so a
// selector naming a peer twice must still yield one conn, at join and at
// reselect.
func TestDuplicatePicksConnectOnce(t *testing.T) {
	s, _ := buildSwarm(t, dupSelector{}, 12, 3, func(c *Config) {
		c.ReselectInterval = 5
		c.MaxTime = 60
	})
	s.start()
	for {
		ev, ok := s.events.pop()
		if !ok || !s.handle(ev) {
			break
		}
		checkAdjacency(t, s)
	}
	if s.stats.Events[evJoin] != 13 || s.stats.Events[evReselect] < 2 || s.stats.Connects == 0 {
		t.Fatalf("stats %+v: the run did not exercise join and reselect", s.stats)
	}
}

func TestDisconnectPanicsWithActiveFlow(t *testing.T) {
	g := topology.Abilene()
	r := topology.ComputeRouting(g)
	s := New(Config{Graph: g, Routing: r, Selector: apptracker.Random{}, Seed: 4})
	s.AddClient(ClientSpec{PID: 0, ASN: 1, UpBps: 1e6, DownBps: 1e6})
	s.AddClient(ClientSpec{PID: 1, ASN: 1, UpBps: 1e6, DownBps: 1e6})
	s.connect(0, 1)
	ci := s.connsOf[0][0]
	s.conns[ci].flow[0] = 0 // simulate an in-flight transfer
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when disconnecting an active connection")
		}
	}()
	s.disconnect(ci)
}

func TestTCPWindowCapsLongPaths(t *testing.T) {
	g := topology.Abilene()
	r := topology.ComputeRouting(g)
	pids := g.AggregationPIDs()
	// Seattle -> NewYork spans the country; with a 64 KiB window the
	// transfer must be far slower than the access rate allows.
	sttl, _ := g.FindNode("Seattle")
	nyc, _ := g.FindNode("NewYork")
	_ = pids
	run := func(window float64) float64 {
		s := New(Config{
			Graph: g, Routing: r, Selector: apptracker.Random{}, Seed: 5,
			FileBytes: 4 << 20, TCPWindowBytes: window,
		})
		s.AddClient(ClientSpec{PID: sttl, ASN: 1, UpBps: 1e9, DownBps: 1e9, IsSeed: true})
		s.AddClient(ClientSpec{PID: nyc, ASN: 1, UpBps: 1e9, DownBps: 1e9})
		res := s.Run()
		return res.MeanCompletionTime()
	}
	slow := run(64 << 10)
	fast := run(-1) // disabled
	if slow <= fast {
		t.Fatalf("window cap had no effect: capped %v vs uncapped %v", slow, fast)
	}
	// Sanity: the extra time should approximate transferring at
	// window/RTT (both runs share the same rechoke ramp-up).
	rtt := 0.004 + 2*r.PropagationDelaySeconds(sttl, nyc)
	wantSec := float64(4<<20) / (float64(64<<10) / rtt)
	if extra := slow - fast; extra < 0.5*wantSec || extra > 2*wantSec {
		t.Fatalf("capped transfer took %v s extra, want ~%v s", extra, wantSec)
	}
}

func TestBackgroundBpsLengthValidated(t *testing.T) {
	g := topology.Abilene()
	r := topology.ComputeRouting(g)
	// A correctly sized vector is accepted.
	New(Config{
		Graph: g, Routing: r, Selector: apptracker.Random{},
		BackgroundBps: make([]float64, g.NumLinks()),
	})
	// A short vector used to crash deep in handleMeasure with a raw
	// index-out-of-range; New must reject it up front with a message
	// naming the mismatch.
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic for short BackgroundBps")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "BackgroundBps") {
			t.Fatalf("panic %v does not name BackgroundBps", r)
		}
	}()
	New(Config{
		Graph: g, Routing: r, Selector: apptracker.Random{},
		BackgroundBps: make([]float64, g.NumLinks()-1),
	})
}

func TestMeasureRatesBufferReused(t *testing.T) {
	// Config.OnMeasure documents that the rates slice is reused across
	// intervals: callbacks must copy anything they retain. Pin the
	// contract so a future change to handleMeasure can't silently start
	// allocating again (or callers can't start depending on retention).
	var (
		calls    int
		retained []float64 // alias of the callback's slice (the hazard)
		snapshot []float64 // copy of the first call's values (the fix)
	)
	s, _ := buildSwarm(t, apptracker.Random{}, 10, 5, func(c *Config) {
		c.MeasureInterval = 3
		c.OnMeasure = func(now float64, rates []float64) {
			if len(rates) == 0 {
				t.Fatal("empty rates slice")
			}
			if calls == 0 {
				retained = rates
				snapshot = append([]float64(nil), rates...)
			} else if &rates[0] != &retained[0] {
				t.Fatal("handleMeasure allocated a fresh rates slice")
			}
			calls++
		}
	})
	s.Run()
	if calls < 2 {
		t.Fatalf("OnMeasure fired %d times, want >= 2", calls)
	}
	// The retained alias was overwritten in place by later intervals:
	// exactly why callbacks must copy. The snapshot still holds the
	// first interval's values.
	changed := false
	for i := range retained {
		if retained[i] != snapshot[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("retained slice matches first-interval snapshot; reuse contract untested (rates constant?)")
	}
}

// recountNovel recomputes a connection's interest counter for the
// direction u -> peer(u) from first principles.
func recountNovel(s *Sim, cn *connS, u int32) int32 {
	d := peerOf(cn, u)
	n := int32(0)
	for p := 0; p < s.pieces; p++ {
		if s.hasPiece(u, p) && !s.hasPiece(d, p) {
			n++
		}
	}
	return n
}

func TestNovelCountersMatchRecount(t *testing.T) {
	// Stop mid-download so the counters are checked while non-trivial
	// (after completion every counter is zero by construction).
	s, _ := buildSwarm(t, apptracker.Random{}, 14, 9, func(c *Config) {
		c.MaxTime = 30
		c.ReselectInterval = 10 // exercise connect/disconnect churn too
	})
	s.Run()
	checked, nonzero := 0, 0
	for id := int32(0); int(id) < len(s.pid); id++ {
		for _, ci := range s.connsOf[id] {
			cn := &s.conns[ci]
			if cn.a != id {
				continue // visit each conn once, from its a side
			}
			for _, u := range [2]int32{cn.a, cn.b} {
				want := recountNovel(s, cn, u)
				got := cn.novel[dirOf(cn, u)]
				if got != want {
					t.Fatalf("conn %d<->%d novel[%d->%d] = %d, want %d",
						cn.a, cn.b, u, peerOf(cn, u), got, want)
				}
				checked++
				if want > 0 {
					nonzero++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no connections to check")
	}
	if nonzero == 0 {
		t.Fatal("every counter was zero; shorten MaxTime so the check has teeth")
	}
}
