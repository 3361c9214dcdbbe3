package apptracker

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"p4p/internal/core"
	"p4p/internal/topology"
)

// selectCase is one generated selection request. fromBytes builds it
// from a byte string so that the fuzzer's mutations move its shape: the
// number and order of PIDs, the zero and +Inf distances, the ASNs, where
// self sits, m.
type selectCase struct {
	view  *core.View
	cfg   P4PConfig
	self  Node
	cands []Node
	m     int
}

func (c selectCase) String() string {
	return fmt.Sprintf("pids=%v D=%v cfg=%+v self=%+v m=%d cands=%v", c.view.PIDs, c.view.D, c.cfg, c.self, c.m, c.cands)
}

// byteStream hands out data one byte at a time, zeros once it runs dry.
type byteStream struct {
	data []byte
	at   int
}

func (s *byteStream) next() int {
	if s.at >= len(s.data) {
		return 0
	}
	s.at++
	return int(s.data[s.at-1])
}

func selectCaseFromBytes(data []byte) selectCase {
	in := &byteStream{data: data}
	var c selectCase

	// 1–12 distinct PIDs, not in order; sometimes far enough apart that
	// the view's index is its map rather than its table.
	nPID := 1 + in.next()%12
	step := topology.PID(1 + in.next()%3)
	if in.next()%8 == 0 {
		step = 1 << 36
	}
	base := topology.PID(in.next()) - 100
	pids := make([]topology.PID, nPID)
	for i := range pids {
		pids[i] = base + topology.PID(i)*step
	}
	for i := nPID - 1; i > 0; i-- {
		j := in.next() % (i + 1)
		pids[i], pids[j] = pids[j], pids[i]
	}
	c.view = &core.View{PIDs: pids, D: make([][]float64, nPID), Version: 1}
	for a := range c.view.D {
		c.view.D[a] = make([]float64, nPID)
		for b := range c.view.D[a] {
			if a == b {
				continue
			}
			switch x := in.next(); {
			case x%7 == 0:
				c.view.D[a][b] = 0
			case x%7 == 1:
				c.view.D[a][b] = math.Inf(1)
			default:
				c.view.D[a][b] = float64(x) / 16
			}
		}
	}

	switch in.next() % 4 {
	case 0:
		c.cfg.Gamma = 1
	case 1:
		c.cfg.Gamma = 0.5
	case 2:
		c.cfg = P4PConfig{UpperBoundIntraPID: 0.3, UpperBoundInterPID: 0.5, Gamma: 1}
	}

	// 1–4 ASNs, one of them negative (Select has always ended stage 3
	// on drawing one; the reference pins that too).
	asns := []int{11537, 7, 0, -3, 65000}
	for i := len(asns) - 1; i > 0; i-- {
		j := in.next() % (i + 1)
		asns[i], asns[j] = asns[j], asns[i]
	}
	asns = asns[:1+in.next()%4]

	c.self = Node{ID: 0, PID: pids[in.next()%nPID], ASN: asns[0]}
	n := in.next()
	if n >= 192 {
		n = (n - 191) * 16 // a few large requests
	} else {
		n %= 48
	}
	c.cands = make([]Node, n)
	for i := range c.cands {
		x, y := in.next(), in.next()
		c.cands[i] = Node{ID: i + 1, PID: pids[x%nPID], ASN: asns[y%len(asns)]}
		if x >= 128 {
			c.cands[i].PID = c.self.PID // keep stage 1 busy
		}
		if y >= 128 {
			c.cands[i].ASN = c.self.ASN
		}
	}
	if n > 0 && in.next()%3 == 0 {
		c.cands[in.next()%n].ID = c.self.ID // self among the candidates
	}
	c.m = in.next()%(n+8) - 3 // from below zero to beyond n
	return c
}

// checkAgainstReference runs one case through sel and through the slow
// oracle on RNGs in the same state, and requires the same indices and
// the same RNG state afterwards.
func checkAgainstReference(t *testing.T, sel *P4P, c selectCase, seed int64) {
	t.Helper()
	got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	sel.Views, sel.Config = testViews{c.view}, c.cfg
	idx := sel.Select(c.self, c.cands, c.m, got)
	ref := refSelect(c.view, c.cfg, c.self, c.cands, c.m, want)
	if fmt.Sprint(idx) != fmt.Sprint(ref) || (idx == nil) != (ref == nil) {
		t.Fatalf("Select = %v, reference %v\n%v", idx, ref, c)
	}
	if g, w := got.Int63(), want.Int63(); g != w {
		t.Fatalf("RNG diverged after Select (next draw %d, reference %d)\n%v", g, w, c)
	}
}

// TestSelectMatchesReference holds P4P.Select to the implementation it
// replaced over generated requests, reusing one selector throughout so
// its scratch sees views and candidate lists of every size in turn. The
// generated requests stay small, so the large single-AS shape a swarm
// asks for is run too, with self outside and inside the list.
func TestSelectMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	sel := &P4P{}
	data := make([]byte, 700)
	for i := 0; i < 3000; i++ {
		r.Read(data)
		checkAgainstReference(t, sel, selectCaseFromBytes(data[:r.Intn(len(data))]), int64(i))
	}
	for i := 0; i < 20; i++ {
		c := selectCase{cfg: P4PConfig{Gamma: 1}, m: 20}
		c.view, c.self, c.cands = swarmSelectInput(1000, int64(i))
		if i%2 == 1 {
			c.cands[r.Intn(len(c.cands))] = c.self
		}
		checkAgainstReference(t, sel, c, int64(i))
	}
}

// TestInterASAdjustmentMatchesReference: the adjustment's two means add
// their distances in the reference's order, bit for bit. Select's
// indices see it only through int(interFrac*m), and the generated
// distances are sixteenths, which add exactly in any order; so this
// compares the value itself, on the generated requests with every
// distance scaled by π.
func TestInterASAdjustmentMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	var s selectScratch
	data := make([]byte, 700)
	for i := 0; i < 3000; i++ {
		r.Read(data)
		c := selectCaseFromBytes(data[:r.Intn(len(data))])
		for _, row := range c.view.D {
			for b := range row {
				row[b] *= math.Pi
			}
		}
		selfCol, ok := c.view.Index(c.self.PID)
		if !ok {
			continue
		}
		s.classify(c.view, c.self, c.cands)
		_, adj := s.sortIntoBuckets(c.view, c.view.D[selfCol], c.view.Weights(c.self.PID, 1), c.cands)
		if want := refInterASAdjustment(c.view, c.self, c.cands); math.Float64bits(adj) != math.Float64bits(want) {
			t.Fatalf("adjustment %v, reference %v\n%v", adj, want, c)
		}
	}
}

func FuzzSelectMatchesReference(f *testing.F) {
	f.Add([]byte{}, int64(1))
	f.Add([]byte("\x03\x01\x01\x64\x01\x00\x10\x20\x30\x07\x01\x40\x01\x00\x00\x00\x00\x00\x02\x00\x28"+
		"\x81\x81\x01\x81\x02\x81\x82\x00\x02\x01\x00\x02\x81\x01\x01\x02\x02\x00\x01\x01"), int64(7))
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		data := make([]byte, 300)
		r.Read(data)
		f.Add(data, int64(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		checkAgainstReference(t, &P4P{}, selectCaseFromBytes(data), seed)
	})
}

// TestWeightsMatchReference: the memoised weight rows are bit-identical
// to the map the selector used to ask the view for.
func TestWeightsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	data := make([]byte, 200)
	for i := 0; i < 500; i++ {
		r.Read(data)
		v := selectCaseFromBytes(data).view
		for _, gamma := range []float64{1, 0.5} {
			for _, src := range v.PIDs {
				row, ref := v.Weights(src, gamma), refWeights(v, src, gamma)
				for col, pid := range v.PIDs {
					if math.Float64bits(row[col]) != math.Float64bits(ref[pid]) {
						t.Fatalf("Weights(%d, %v)[%d] = %v, reference %v (D = %v)", src, gamma, pid, row[col], ref[pid], v.D)
					}
				}
			}
		}
	}
}

// TestRandomSelectMatchesReference: the map-free Floyd draw picks what
// the map-backed one did, self inside the candidates and not.
func TestRandomSelectMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		n := r.Intn(40)
		cands := make([]Node, n)
		for k := range cands {
			cands[k].ID = k + 1
		}
		self := Node{ID: 0}
		if n > 0 && r.Intn(2) == 0 {
			self.ID = 1 + r.Intn(n)
		}
		m := r.Intn(n+4) - 1
		got, want := rand.New(rand.NewSource(int64(i))), rand.New(rand.NewSource(int64(i)))
		idx, ref := Random{}.Select(self, cands, m, got), refRandomSelect(self, cands, m, want)
		if fmt.Sprint(idx) != fmt.Sprint(ref) || (idx == nil) != (ref == nil) || got.Int63() != want.Int63() {
			t.Fatalf("n=%d m=%d self=%d: Select = %v, reference %v", n, m, self.ID, idx, ref)
		}
	}
}

// scriptedSource replays its draws in a loop and counts them.
type scriptedSource struct {
	draws []int64
	n     int
}

func (s *scriptedSource) Int63() int64 { s.n++; return s.draws[(s.n-1)%len(s.draws)] }
func (s *scriptedSource) Seed(int64)   {}

// TestShuffleMatchesRandShuffle: the inlined shuffle permutes exactly as
// rand.Shuffle does and leaves the generator where it does, over many
// lengths and seeds, and through the int31n rejection loop, which a
// seeded generator reaches with probability ~n/2³² per draw.
func TestShuffleMatchesRandShuffle(t *testing.T) {
	check := func(got, want *rand.Rand, n int) {
		t.Helper()
		s, ref := make([]int, n), make([]int, n)
		for i := range s {
			s[i], ref[i] = i, i
		}
		shuffle(got, s)
		refShuffle(want, ref)
		if !slices.Equal(s, ref) || got.Int63() != want.Int63() {
			t.Fatalf("n=%d: shuffle and rand.Shuffle differ (first 10: %v vs %v) or left the generator apart", n, s[:min(n, 10)], ref[:min(n, 10)])
		}
	}
	lengths := []int{1000, 10000}
	for n := 0; n <= 300; n++ {
		lengths = append(lengths, n)
	}
	for seed := int64(0); seed < 40; seed++ {
		for _, n := range lengths {
			check(rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed)), n)
		}
	}
	// A 0 draw at n = 3 has low word 0 < (2³²−3) mod 3 = 1: rejected, and
	// the next draw is taken.
	script := []int64{0, 1 << 62, 3 << 60, 5 << 59}
	got, want := &scriptedSource{draws: script}, &scriptedSource{draws: script}
	check(rand.New(got), rand.New(want), 3)
	if got.n != want.n || got.n != 4 {
		t.Fatalf("shuffle drew %d times, rand.Shuffle %d; want 4 (2 swaps, 1 rejection, 1 trailing check)", got.n, want.n)
	}
}

// TestSelectUnknownPIDs: a PID the view does not list must not panic the
// selector (over HTTP it arrives from a remote client, and during a
// multi-portal cold start the view is legitimately partial). An unknown
// candidate is unreachable — reachable only through the weight floor and
// the backfill — and an unknown self falls back to Random, as a missing
// view does.
func TestSelectUnknownPIDs(t *testing.T) {
	self := Node{ID: 0, PID: 0, ASN: 1}
	cands := makeCandidates([]struct {
		pid topology.PID
		asn int
		n   int
	}{{0, 1, 10}, {1, 1, 10}, {99, 1, 10}, {2, 2, 10}, {77, 2, 10}, {98, 3, 10}})
	sel := &P4P{Views: testViews{threePIDView()}}
	rng := rand.New(rand.NewSource(11))
	unknown := 0
	for trial := 0; trial < 200; trial++ {
		idx := sel.Select(self, cands, 20, rng)
		if len(idx) != 20 {
			t.Fatalf("selected %d peers, want 20", len(idx))
		}
		checkNoSelfNoDup(t, self, cands, idx)
		for _, i := range idx {
			if p := cands[i].PID; p > 2 {
				unknown++
			}
		}
	}
	// Unknown PIDs are half the candidates but carry the 1e-9 floor:
	// they are all but never drawn while listed PIDs remain.
	if unknown > 20 {
		t.Errorf("unknown-PID candidates taken %d times in 4000 picks; they should rank as unreachable", unknown)
	}
	// With nothing else on offer they still connect the client.
	only := cands[20:30]
	if idx := sel.Select(self, only, 5, rng); len(idx) != 5 {
		t.Errorf("selected %d of 10 unknown-PID candidates, want 5", len(idx))
	}

	// Unknown self: exactly Random's picks and draws.
	lost := Node{ID: 0, PID: 99, ASN: 1}
	got, want := rand.New(rand.NewSource(12)), rand.New(rand.NewSource(12))
	idx, ref := sel.Select(lost, cands, 20, got), Random{}.Select(lost, cands, 20, want)
	if fmt.Sprint(idx) != fmt.Sprint(ref) || got.Int63() != want.Int63() {
		t.Errorf("unknown self: Select = %v, Random %v", idx, ref)
	}
}

// abileneView is the Abilene view at the engine's starting prices.
func abileneView() (*topology.Graph, *core.View) {
	g := topology.Abilene()
	eng := core.NewEngine(g, topology.ComputeRouting(g), core.Config{})
	return g, eng.Matrix(g.AggregationPIDs())
}

// abileneSelectInput is the benchmark's request: n candidates spread
// uniformly over the Abilene PoPs, a fifth of them in a second AS.
func abileneSelectInput(n int) (*core.View, Node, []Node) {
	_, view := abileneView()
	r := rand.New(rand.NewSource(1))
	cands := make([]Node, n)
	for i := range cands {
		cands[i] = Node{ID: i + 1, PID: view.PIDs[r.Intn(len(view.PIDs))], ASN: 11537}
		if i%5 == 4 {
			cands[i].ASN = 7
		}
	}
	return view, Node{ID: 0, PID: view.PIDs[0], ASN: 11537}, cands
}

// swarmSelectInput is the request a 1,000-leecher Abilene swarm makes:
// n candidates in one AS, each PoP drawn with the metro-population weight
// the experiments place clients by, and the client drawn the same way. So
// its own PID holds a share of the candidates (stage 1), and with m = 20
// stages 1–2 stop at 80 % of m, so the backfill runs too.
func swarmSelectInput(n int, seed int64) (*core.View, Node, []Node) {
	population := map[string]float64{
		"NewYork": 0.22, "WashingtonDC": 0.18, "Chicago": 0.12,
		"LosAngeles": 0.12, "Atlanta": 0.09, "Indianapolis": 0.05,
		"Houston": 0.06, "Denver": 0.05, "KansasCity": 0.04,
		"Seattle": 0.04, "Sunnyvale": 0.03,
	}
	g, view := abileneView()
	pids := g.AggregationPIDs()
	cum := make([]float64, len(pids))
	total := 0.0
	for i, pid := range pids {
		total += population[g.Node(pid).Name]
		cum[i] = total
	}
	r := rand.New(rand.NewSource(seed))
	place := func(id int) Node {
		k := min(sort.SearchFloat64s(cum, r.Float64()*total), len(pids)-1)
		return Node{ID: id, PID: pids[k], ASN: 11537}
	}
	cands := make([]Node, n)
	for i := range cands {
		cands[i] = place(i + 1)
	}
	return view, place(0), cands
}

// TestSelectOneAllocation pins the selector's allocation contract: in
// steady state a Select allocates its result and nothing else.
func TestSelectOneAllocation(t *testing.T) {
	view, self, cands := abileneSelectInput(1000)
	sel := &P4P{Views: testViews{view}}
	rng := rand.New(rand.NewSource(1))
	sel.Select(self, cands, 20, rng) // size the scratch, build the view memo
	if allocs := testing.AllocsPerRun(200, func() { sel.Select(self, cands, 20, rng) }); allocs != 1 {
		t.Fatalf("Select: %.1f allocs/op, want 1 (the result)", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { Random{}.Select(self, cands, 20, rng) }); allocs != 1 {
		t.Fatalf("Random.Select: %.1f allocs/op, want 1 (the result)", allocs)
	}
}

var selectSink []int

// BenchmarkP4PSelect times one request at m = 20: 200, 1k and 10k
// uniformly placed candidates with a fifth in a second AS, and swarm1k,
// the single-AS, population-placed, γ = 1 request of swarm-p4p.
func BenchmarkP4PSelect(b *testing.B) {
	for _, size := range []struct {
		name  string
		n     int
		swarm bool
	}{{"200", 200, false}, {"1k", 1000, false}, {"10k", 10000, false}, {"swarm1k", 1000, true}} {
		b.Run(size.name, func(b *testing.B) {
			view, self, cands := abileneSelectInput(size.n)
			var cfg P4PConfig
			if size.swarm {
				view, self, cands = swarmSelectInput(size.n, 1)
				cfg.Gamma = 1
			}
			sel := &P4P{Views: testViews{view}, Config: cfg}
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				selectSink = sel.Select(self, cands, 20, rng)
			}
		})
	}
}
