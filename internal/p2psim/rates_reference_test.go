package p2psim

import (
	"cmp"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"p4p/internal/apptracker"
	"p4p/internal/core"
	"p4p/internal/itracker"
	"p4p/internal/topology"
)

// This file holds the slow oracle of rate resolution: the
// scan + epoch + sort ratesChanged the package shipped through PR 22,
// moved here verbatim (its dedup stamp and scratch now live on the
// resolver instead of on flowS and Sim), and the lock-step harness that
// runs one simulation resolving by the per-client flow lists against
// one resolving by this reference.

// flowRef snapshots the sort key of one flow, so the deterministic
// (uploader, downloader) ordering can be established with a
// capture-free comparator over values.
type flowRef struct {
	idx  int32
	u, d int32
}

// cmpFlowRef orders flows by (uploader, downloader).
func cmpFlowRef(x, y flowRef) int {
	if x.u != y.u {
		return cmp.Compare(x.u, y.u)
	}
	return cmp.Compare(x.d, y.d)
}

// refResolver is the reference rate resolver and its scratch state.
type refResolver struct {
	flowEpoch   int64
	epochOf     []int64 // per flow arena slot: the old flowS.epoch
	flowScratch []flowRef
}

// ratesChanged recomputes the rates of all flows incident to the two
// endpoints (their fair shares changed) and reschedules finish events.
// Flows are deduplicated by stamping them with a fresh epoch and
// collected into a scratch slice reused across calls; the sort keeps
// the deterministic (uploader, downloader) iteration order.
func (r *refResolver) ratesChanged(s *Sim, a, b int32) {
	r.flowEpoch++
	for len(r.epochOf) < len(s.flows) {
		r.epochOf = append(r.epochOf, 0)
	}
	flows := r.flowScratch[:0]
	for _, c := range [2]int32{a, b} {
		for _, ci := range s.connsOf[c] {
			cn := &s.conns[ci]
			for dir := 0; dir < 2; dir++ {
				fi := cn.flow[dir]
				if fi < 0 {
					continue
				}
				f := &s.flows[fi]
				if f.active && r.epochOf[fi] != r.flowEpoch {
					r.epochOf[fi] = r.flowEpoch
					flows = append(flows, flowRef{idx: fi, u: f.u, d: f.d})
				}
			}
		}
	}
	slices.SortFunc(flows, cmpFlowRef)
	r.flowScratch = flows
	s.stats.FlowsVisited += int64(len(flows))
	for _, ref := range flows {
		f := &s.flows[ref.idx]
		newRate := s.flowRate(f)
		if newRate == f.rate {
			// Unchanged rate: the previously scheduled finish event is
			// still exact; skip the reschedule and the progress flush.
			continue
		}
		s.stats.FlowsRerated++
		s.progressFlow(f)
		s.applyRate(f, newRate)
		s.scheduleFinish(f)
	}
}

// ratedFlow is one entry of an event's log: a flow handle with the bits
// of its new rate and of its scheduled finish time.
type ratedFlow struct {
	flow         int32
	rate, finish uint64
}

// rateLogger derives, after each event, the ordered log of the flows
// the event re-rated or re-armed, by diffing the flow arena against its
// state after the previous event (the queued finish event's qseq moves
// on every re-arm, so a flow re-armed to the same finish time still
// shows). No production seam is needed for it. The order of the
// re-rates within an event is pinned separately, by the two things it
// can change: the float sums in linkRate and the push order (qseq) of
// the finish events.
type rateLogger struct {
	prev []ratedFlow
	qseq []uint64
	log  []ratedFlow
}

func (l *rateLogger) after(s *Sim) []ratedFlow {
	l.log = l.log[:0]
	for i := range s.flows {
		f := &s.flows[i]
		if i == len(l.prev) {
			l.prev = append(l.prev, ratedFlow{flow: int32(i)})
			l.qseq = append(l.qseq, 0)
		}
		cur := ratedFlow{int32(i), math.Float64bits(f.rate), math.Float64bits(f.eventT)}
		var qseq uint64 // 0: no finish event queued
		if at := s.events.pos[i]; at >= 0 {
			qseq = s.events.ev[at].qseq
		}
		if cur != l.prev[i] || qseq != l.qseq[i] {
			l.prev[i], l.qseq[i] = cur, qseq
			l.log = append(l.log, cur)
		}
	}
	return l.log
}

func floatBitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// visitStats is what a lock-step run reports besides agreement: how
// many flows each resolver looked at.
type visitStats struct {
	resolves, rerated     int64
	listVisits, refVisits int64
}

// runLockStep builds the same simulation twice, resolves one by the
// flow lists and one by the reference, and advances both one event at a
// time. Every popped event (time bits, kind, handle and push order)
// must be equal, and after every event the ordered logs of
// re-rated flows (handle, new rate bits, scheduled finish-time bits),
// the push counters and the per-link rate bits; at the end the Results
// must be deep-equal but for FlowsVisited.
func runLockStep(t testing.TB, build func() *Sim) visitStats {
	t.Helper()
	lists, oracle := build(), build()
	ref := &refResolver{}
	oracle.refRates = ref.ratesChanged
	var listLog, refLog rateLogger
	lists.start()
	oracle.start()
	for step := 0; ; step++ {
		ev, ok := lists.events.pop()
		evRef, okRef := oracle.events.pop()
		if ok != okRef || ev != evRef {
			t.Fatalf("step %d: lists popped %+v (%v), reference %+v (%v)", step, ev, ok, evRef, okRef)
		}
		if !ok {
			break
		}
		more, moreRef := lists.handle(ev), oracle.handle(evRef)
		if got, want := listLog.after(lists), refLog.after(oracle); !slices.Equal(got, want) {
			t.Fatalf("step %d (event %+v): re-rated flows differ\n    lists %v\nreference %v", step, ev, got, want)
		}
		if lists.qseq != oracle.qseq || !floatBitsEqual(lists.linkRate, oracle.linkRate) {
			t.Fatalf("step %d (event %+v): re-rates ran in a different order: %d pushes and link rates %v by the lists, %d and %v by the reference",
				step, ev, lists.qseq, lists.linkRate, oracle.qseq, oracle.linkRate)
		}
		if more != moreRef {
			t.Fatalf("step %d: lists continue=%v, reference continue=%v", step, more, moreRef)
		}
		if !more {
			break
		}
	}
	got, want := lists.finish(), oracle.finish()
	st := visitStats{
		resolves: got.RateResolves, rerated: got.FlowsRerated,
		listVisits: got.FlowsVisited, refVisits: want.FlowsVisited,
	}
	if st.listVisits > st.refVisits {
		t.Fatalf("lists visited %d flows, the full scan only %d", st.listVisits, st.refVisits)
	}
	got.FlowsVisited, want.FlowsVisited = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("results differ:\n    lists %+v\nreference %+v", got, want)
	}
	return st
}

// ratesCase is one fuzzed configuration. The zero value of every knob
// is valid; fields are reduced into their ranges by build.
type ratesCase struct {
	seed      int64
	clients   uint8 // 2..60
	slots     uint8 // UploadSlots 1..6
	neighbors uint8 // NeighborTarget 1..24
	flags     uint8 // bit 0 TCP window off, 1 reselection, 2 streaming, 3 homogeneous access, 4 staggered joins
}

var accessBps = [...]float64{0.5e6, 1e6, 2e6, 5e6, 10e6, 20e6, 100e6}

func (rc ratesCase) build(g *topology.Graph, r *topology.Routing) func() *Sim {
	return func() *Sim {
		cfg := Config{
			Graph: g, Routing: r, Selector: apptracker.Random{}, Seed: rc.seed,
			PieceBytes:      64 << 10,
			FileBytes:       1 << 20,
			UploadSlots:     1 + int(rc.slots%6),
			NeighborTarget:  1 + int(rc.neighbors%24),
			MeasureInterval: 7,
			OnMeasure:       func(float64, []float64) {},
			MaxTime:         900,
		}
		if rc.flags&1 != 0 {
			cfg.TCPWindowBytes = -1
		}
		if rc.flags&2 != 0 {
			cfg.ReselectInterval = 9
		}
		if rc.flags&4 != 0 {
			cfg.Streaming = &StreamingConfig{RateBps: 400e3, ContentSec: 60, WindowSec: 20}
			cfg.MaxTime = 90
		}
		s := New(cfg)
		rng := rand.New(rand.NewSource(rc.seed ^ 0x5eed))
		pids := g.AggregationPIDs()
		n := 2 + int(rc.clients)%59
		for i := 0; i < n; i++ {
			spec := ClientSpec{PID: pids[rng.Intn(len(pids))], ASN: 1, UpBps: 5e6, DownBps: 20e6, IsSeed: i == 0}
			if rc.flags&8 == 0 {
				spec.UpBps = accessBps[rng.Intn(len(accessBps))]
				spec.DownBps = accessBps[rng.Intn(len(accessBps))]
			}
			if rc.flags&16 != 0 && i > 0 {
				spec.JoinAt = rng.Float64() * 30
			}
			s.AddClient(spec)
		}
		return s
	}
}

// FuzzRatesMatchReference runs the list resolver against the reference
// in lock-step over fuzzed swarms.
func FuzzRatesMatchReference(f *testing.F) {
	for _, rc := range ratesCorpus {
		f.Add(rc.seed, rc.clients, rc.slots, rc.neighbors, rc.flags)
	}
	g := topology.Abilene()
	r := topology.ComputeRouting(g)
	f.Fuzz(func(t *testing.T, seed int64, clients, slots, neighbors, flags uint8) {
		runLockStep(t, ratesCase{seed, clients, slots, neighbors, flags}.build(g, r))
	})
}

var ratesCorpus = []ratesCase{
	{seed: 1, clients: 0, slots: 0, neighbors: 0},                // 2 clients, 1 slot, 1 neighbor
	{seed: 2, clients: 10, slots: 3, neighbors: 19},              // defaults, window on
	{seed: 3, clients: 28, slots: 3, neighbors: 7, flags: 1},     // window off: rates tie exactly
	{seed: 4, clients: 40, slots: 5, neighbors: 23, flags: 2},    // reselection churn
	{seed: 5, clients: 30, slots: 2, neighbors: 11, flags: 4},    // streaming
	{seed: 6, clients: 58, slots: 3, neighbors: 19, flags: 8},    // homogeneous access, everyone at t=0
	{seed: 7, clients: 58, slots: 0, neighbors: 23, flags: 16},   // optimistic slot only, staggered
	{seed: 8, clients: 45, slots: 4, neighbors: 15, flags: 31},   // everything at once
	{seed: 9, clients: 20, slots: 1, neighbors: 3, flags: 1 | 2}, // sparse graph, reselection, no window
	{seed: 10, clients: 50, slots: 3, neighbors: 19, flags: 2 | 4 | 16},
}

// p4pSwarm has the control loop of experiments' intradomainCell (the
// golden swarm, and swarm-p4p): P4P selection with the dual engine's
// iTracker in the loop, reselection every 20 s, link rates fed back
// every 2 s; leechers are placed uniformly.
func p4pSwarm(leechers int, seed int64) func() *Sim {
	g := topology.Abilene()
	r := topology.ComputeRouting(g)
	return func() *Sim {
		engine := core.NewEngine(g, r, core.Config{Objective: core.MinimizeMLU, StepSize: 0.3})
		tr := itracker.New(itracker.Config{Name: g.Name, ASN: g.Node(0).ASN}, engine, nil)
		s := New(Config{
			Graph: g, Routing: r, Seed: seed,
			Selector:         &apptracker.P4P{Views: tr, Config: apptracker.P4PConfig{Gamma: 1.0}},
			FileBytes:        16 << 20,
			SampleInterval:   2,
			TCPWindowBytes:   32 << 10,
			ReselectInterval: 20,
			MeasureInterval:  2,
			OnMeasure:        func(_ float64, rates []float64) { tr.ObserveAndUpdate(rates) },
		})
		pids := g.AggregationPIDs()
		asn := g.Node(0).ASN
		rng := rand.New(rand.NewSource(seed + 1))
		s.AddClient(ClientSpec{PID: pids[0], ASN: asn, UpBps: 1e9, DownBps: 1e9, IsSeed: true})
		for i := 0; i < leechers; i++ {
			s.AddClient(ClientSpec{
				PID: pids[rng.Intn(len(pids))], ASN: asn, UpBps: 100e6, DownBps: 100e6,
				JoinAt: 300 * float64(i) / float64(leechers),
			})
		}
		return s
	}
}

// TestRatesMatchReference runs the lock-step comparison over the seeded
// corpus and over a 300-leecher P4P swarm with the iTracker in the
// loop, and logs the flows each resolver visits per resolve.
func TestRatesMatchReference(t *testing.T) {
	g := topology.Abilene()
	r := topology.ComputeRouting(g)
	var sum visitStats
	for _, rc := range ratesCorpus {
		st := runLockStep(t, rc.build(g, r))
		if st.resolves == 0 || st.rerated == 0 {
			t.Fatalf("case %+v resolved nothing (%+v)", rc, st)
		}
		sum.resolves += st.resolves
		sum.listVisits += st.listVisits
		sum.refVisits += st.refVisits
	}
	t.Logf("corpus: %d resolves, flows visited per resolve %.2f by the lists, %.2f by the reference scan",
		sum.resolves, float64(sum.listVisits)/float64(sum.resolves), float64(sum.refVisits)/float64(sum.resolves))

	leechers := 300
	if testing.Short() {
		leechers = 60
	}
	st := runLockStep(t, p4pSwarm(leechers, 1))
	t.Logf("%d-leecher P4P swarm: %d resolves, %d re-rated, flows visited per resolve %.2f by the lists, %.2f by the reference scan",
		leechers, st.resolves, st.rerated, float64(st.listVisits)/float64(st.resolves), float64(st.refVisits)/float64(st.resolves))
}

// checkFlowLists verifies the per-client flow lists against the flow
// arena: every active flow sits exactly once in its uploader's upload
// list and once in its downloader's download list, both lists are
// strictly ordered and as long as up[c].n/down[c].n say, freed slots
// are unlinked, and every active flow carries its current fair rate,
// recomputed here from the access capacities and counts rather than
// read from the cached shares flowRate reads — the property that lets
// ratesChanged visit only u's uploads and d's downloads.
func checkFlowLists(t *testing.T, s *Sim) (active int) {
	t.Helper()
	inUp := make([]int, len(s.flows))
	inDown := make([]int, len(s.flows))
	for c := int32(0); int(c) < len(s.clients); c++ {
		n, last := int32(0), int32(-1)
		for fi := s.upHead[c]; fi >= 0; fi = s.flows[fi].nextUp {
			f := &s.flows[fi]
			if !f.active || f.u != c || f.d <= last {
				t.Fatalf("client %d upload list: flow %d (active=%v %d->%d) after downloader %d", c, fi, f.active, f.u, f.d, last)
			}
			last = f.d
			inUp[fi]++
			if n++; int(n) > len(s.flows) {
				t.Fatalf("client %d upload list cycles", c)
			}
		}
		if n != s.up[c].n {
			t.Fatalf("client %d: %d uploads listed, up.n = %d", c, n, s.up[c].n)
		}
		n, last = 0, -1
		for fi := s.downHead[c]; fi >= 0; fi = s.flows[fi].nextDown {
			f := &s.flows[fi]
			if !f.active || f.d != c || f.u <= last {
				t.Fatalf("client %d download list: flow %d (active=%v %d->%d) after uploader %d", c, fi, f.active, f.u, f.d, last)
			}
			last = f.u
			inDown[fi]++
			if n++; int(n) > len(s.flows) {
				t.Fatalf("client %d download list cycles", c)
			}
		}
		if n != s.down[c].n {
			t.Fatalf("client %d: %d downloads listed, down.n = %d", c, n, s.down[c].n)
		}
	}
	for fi := range s.flows {
		f := &s.flows[fi]
		if !f.active {
			if inUp[fi] != 0 || inDown[fi] != 0 {
				t.Fatalf("inactive flow %d is still listed", fi)
			}
			continue
		}
		active++
		if inUp[fi] != 1 || inDown[fi] != 1 {
			t.Fatalf("active flow %d (%d->%d) listed %d times as upload, %d as download", fi, f.u, f.d, inUp[fi], inDown[fi])
		}
		up, down := &s.up[f.u], &s.down[f.d]
		if want := min(f.rateCap, up.bps/float64(up.n), down.bps/float64(down.n)); f.rate != want {
			t.Fatalf("active flow %d (%d->%d) has rate %v, its fair share is %v", fi, f.u, f.d, f.rate, want)
		}
		cn := &s.conns[f.cn]
		if cn.flow[dirOf(cn, f.u)] != int32(fi) {
			t.Fatalf("active flow %d (%d->%d) is not its connection's flow", fi, f.u, f.d)
		}
	}
	for _, fi := range s.flowFree {
		if f := &s.flows[fi]; f.active || f.nextUp != -1 || f.nextDown != -1 {
			t.Fatalf("free slot %d: active=%v links (%d, %d), want unlinked", fi, f.active, f.nextUp, f.nextDown)
		}
	}
	return active
}

// checkFinishEvents verifies the event heap's flow index against the
// flow arena: each active flow with a finite eventT has exactly one
// finish event queued, at the position the heap records, at time
// eventT; no other finish event is queued, and every other flow's
// position is -1.
func checkFinishEvents(t *testing.T, s *Sim) {
	t.Helper()
	if len(s.events.pos) != len(s.flows) {
		t.Fatalf("position table has %d entries, flow arena %d", len(s.events.pos), len(s.flows))
	}
	queued := make([]int, len(s.flows))
	for i, e := range s.events.ev {
		if e.kind != evFlowFinish {
			continue
		}
		queued[e.id]++
		f := &s.flows[e.id]
		if !f.active || e.t != f.eventT || s.events.pos[e.id] != int32(i) {
			t.Fatalf("finish event %+v at %d: flow active=%v eventT %v, recorded at %d", e, i, f.active, f.eventT, s.events.pos[e.id])
		}
	}
	for fi := range s.flows {
		f := &s.flows[fi]
		want := 0
		if f.active && !math.IsInf(f.eventT, 1) {
			want = 1
		}
		if queued[fi] != want || (want == 0 && s.events.pos[fi] != -1) {
			t.Fatalf("flow %d (active=%v, eventT %v): %d finish events queued, position %d", fi, f.active, f.eventT, queued[fi], s.events.pos[fi])
		}
	}
}

// checkAdjacency verifies the conn arena against the per-client conn
// lists, which are the only record of who is connected to whom: every
// live conn is listed once at each of its ends and nowhere else, no
// client lists a peer twice, and an optimistic unchoke is -1 or one of
// the client's own conns.
func checkAdjacency(t *testing.T, s *Sim) {
	t.Helper()
	free := make([]bool, len(s.conns))
	for _, ci := range s.connFree {
		free[ci] = true
	}
	listed := make([]int, len(s.conns))
	seenBy := make([]int32, len(s.clients)) // c+1 once c has listed the peer
	for c := int32(0); int(c) < len(s.clients); c++ {
		for _, ci := range s.connsOf[c] {
			cn := &s.conns[ci]
			if free[ci] || (cn.a != c && cn.b != c) {
				t.Fatalf("client %d lists conn %d (%d<->%d, free=%v)", c, ci, cn.a, cn.b, free[ci])
			}
			p := peerOf(cn, c)
			if seenBy[p] == c+1 {
				t.Fatalf("client %d lists peer %d twice: %v", c, p, s.connsOf[c])
			}
			seenBy[p] = c + 1
			listed[ci]++
		}
		if opt := s.optimistic[c]; opt >= 0 && !slices.Contains(s.connsOf[c], opt) {
			t.Fatalf("client %d: optimistic conn %d is not one of its conns %v", c, opt, s.connsOf[c])
		}
	}
	for ci := range s.conns {
		if !free[ci] && listed[ci] != 2 {
			t.Fatalf("live conn %d (%d<->%d) is listed %d times", ci, s.conns[ci].a, s.conns[ci].b, listed[ci])
		}
	}
}

// checkAvailability recounts, for every piece a client lacks, how many
// of its neighbors hold it: the availability counts pickPiece reads.
func checkAvailability(t *testing.T, s *Sim) {
	t.Helper()
	for c := int32(0); int(c) < len(s.clients); c++ {
		for p := 0; p < s.pieces; p++ {
			if s.hasPiece(c, p) {
				continue
			}
			want := int32(0)
			for _, ci := range s.connsOf[c] {
				if s.hasPiece(peerOf(&s.conns[ci], c), p) {
					want++
				}
			}
			if got := s.availOf(c)[p]; got != want {
				t.Fatalf("client %d lacks piece %d: avail %d, %d neighbors hold it", c, p, got, want)
			}
		}
	}
}

// TestFlowListsInvariant drives the event loop by hand and checks the
// flow lists, the queued finish events, the adjacency and the
// availability after every event, in file and in streaming mode.
func TestFlowListsInvariant(t *testing.T) {
	g := topology.Abilene()
	r := topology.ComputeRouting(g)
	for _, rc := range []ratesCase{
		{seed: 11, clients: 38, slots: 3, neighbors: 19, flags: 2 | 16},
		{seed: 12, clients: 25, slots: 2, neighbors: 9, flags: 1 | 4},
	} {
		s := rc.build(g, r)()
		s.start()
		events, peak := 0, 0
		for {
			ev, ok := s.events.pop()
			if !ok || !s.handle(ev) {
				break
			}
			events++
			if n := checkFlowLists(t, s); n > peak {
				peak = n
			}
			checkFinishEvents(t, s)
			checkAdjacency(t, s)
			checkAvailability(t, s)
		}
		if peak < 4 {
			t.Fatalf("case %+v: at most %d flows were ever active over %d events; the check has no teeth", rc, peak, events)
		}
		if rc.flags&2 != 0 && s.stats.Disconnects == 0 {
			t.Fatalf("case %+v: reselection dropped no conn; the adjacency check has no teeth", rc)
		}
	}
}

// TestRateZeroDequeuesFinish stops a flow with a finish event queued,
// every few events of a swarm: at rate 0 scheduleFinish must leave
// nothing queued for it, and the re-rate that follows must queue one
// again. Access shares never round to 0 in a run, so the branch is
// driven by hand.
func TestRateZeroDequeuesFinish(t *testing.T) {
	g := topology.Abilene()
	r := topology.ComputeRouting(g)
	s := ratesCase{seed: 13, clients: 30, slots: 3, neighbors: 11}.build(g, r)()
	s.start()
	stopped := 0
	for n := 0; ; n++ {
		ev, ok := s.events.pop()
		if !ok || !s.handle(ev) {
			break
		}
		if n%7 != 0 {
			continue
		}
		for fi := range s.flows {
			if f := &s.flows[fi]; f.active && !math.IsInf(f.eventT, 1) {
				s.progressFlow(f)
				s.applyRate(f, 0)
				s.scheduleFinish(f)
				checkFinishEvents(t, s)
				s.rerate(f)
				stopped++
				break
			}
		}
		checkFlowLists(t, s)
		checkFinishEvents(t, s)
	}
	if stopped < 20 {
		t.Fatalf("only %d flows were stopped; the check has no teeth", stopped)
	}
}
