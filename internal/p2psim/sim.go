// Package p2psim is a discrete-event, session-level simulator for
// BitTorrent-style P2P swarms over PID-level topologies, following the
// simulation methodology the paper adopts from Bharambe et al. [3] and
// Bindal et al. [4]: packet-level behaviour is abstracted away and each
// active piece transfer is a fluid flow whose rate is the minimum of its
// two endpoints' fair shares (upload capacity split across active
// uploads, download capacity across active downloads). Backbone links
// are accounted (for utilization, bottleneck-traffic, and BDP metrics)
// but are not rate-limiting, matching the evaluated regimes where access
// links bound TCP throughput.
//
// The simulator models the BitTorrent control plane explicitly: tracker
// peer selection (pluggable via apptracker.Selector), piece bitfields,
// local-rarest-first piece selection, periodic tit-for-tat rechoking
// with optimistic unchoke, and seeding after completion. A streaming
// mode (Liveswarms) layers a sliding playback window on the same engine.
//
// The engine is sized for 10^5-peer swarms (BenchmarkSimHundredK): hot
// per-client and per-flow state lives in struct-of-arrays
// index-addressed slices (piece bitfields as flat bitsets, availability
// as a flat counter array exact only for the pieces each client lacks,
// connections and flows in free-listed arenas addressed by int32
// handles); a client is its index in AddClient order. Events flow
// through one indexed binary min-heap (see queue.go). See DESIGN.md
// §13.
package p2psim

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"

	"p4p/internal/apptracker"
	"p4p/internal/topology"
)

const (
	// rechokeInterval is the tit-for-tat period in seconds.
	rechokeInterval = 10.0
	// optimisticEvery rotates the optimistic unchoke every this many
	// rechokes (30 s).
	optimisticEvery = 3
	// baseRTTSec is the fixed RTT floor covering access and processing
	// delays (4 ms).
	baseRTTSec = 0.004
	// uploadSlots is the number of concurrent unchoked peers per client,
	// including the optimistic slot.
	uploadSlots = 4
)

// Config parameterizes a simulation.
type Config struct {
	Graph   *topology.Graph
	Routing *topology.Routing
	// Selector chooses neighbors at join time; required.
	Selector apptracker.Selector
	// Seed drives all randomness.
	Seed int64

	// PieceBytes is the piece size (default 256 KiB).
	PieceBytes int64
	// FileBytes is the shared file size (default 12 MiB).
	FileBytes int64
	// NeighborTarget m is how many peers the tracker returns (default 20).
	NeighborTarget int
	// ReselectInterval, if positive, makes every client re-query the
	// tracker periodically and replace idle connections that the fresh
	// selection no longer includes — the appTracker re-optimization that
	// lets evolving p-distances steer an already-running swarm.
	ReselectInterval float64

	// BackgroundBps holds per-link background traffic (bits/sec) used
	// for utilization accounting; nil means zero. No program sets it
	// yet; it stays for a rate model in which backbone links bind.
	BackgroundBps []float64

	// MeasureInterval, if positive, invokes OnMeasure with the current
	// per-link P4P traffic rates (bits/sec) every interval — the hook
	// that feeds an iTracker's ObserveTraffic/Update loop. The rate
	// slice is reused between invocations: callbacks must copy it if
	// they retain it past the call.
	MeasureInterval float64
	OnMeasure       func(now float64, linkRateBps []float64)

	// SampleInterval, if positive, records utilization samples.
	SampleInterval float64
	// WatchLedgers attaches interval volume ledgers to selected links
	// for percentile-charging analysis.
	WatchLedgers *LedgerConfig

	// TCPWindowBytes caps each transfer's rate at window/RTT, modelling
	// window-limited TCP over long paths — the reason "transport layer
	// connections over low-latency network paths would be more
	// efficient" (Section 2). RTT is twice the route propagation delay
	// plus baseRTTSec. Default 64 KiB (the common 2008-era default
	// socket buffer); set negative to disable.
	TCPWindowBytes float64

	// MaxTime hard-stops the simulation (default 10^7 s).
	MaxTime float64

	// Streaming, if non-nil, runs the Liveswarms mode instead of file
	// download: pieces are produced continuously by the source and
	// clients fetch within a sliding window until MaxTime.
	Streaming *StreamingConfig
}

func (c *Config) withDefaults() {
	if c.PieceBytes == 0 {
		c.PieceBytes = 256 << 10
	}
	if c.FileBytes == 0 {
		c.FileBytes = 12 << 20
	}
	if c.NeighborTarget == 0 {
		c.NeighborTarget = 20
	}
	if c.TCPWindowBytes == 0 {
		c.TCPWindowBytes = 64 << 10
	}
	if c.MaxTime == 0 {
		c.MaxTime = 1e7
	}
}

// ClientSpec describes one client to be added to the swarm.
type ClientSpec struct {
	PID     topology.PID
	ASN     int
	UpBps   float64
	DownBps float64
	JoinAt  float64
	IsSeed  bool
	// Class is an access-class label that nothing reads; it stays, write
	// only, because the benchmark module sets it.
	Class string
}

// connS is one (symmetric) neighbor relationship, stored in the Sim's
// conn arena and addressed by int32 handle.
type connS struct {
	a, b int32
	// unchoked[0]: a unchokes b; unchoked[1]: b unchokes a.
	unchoked [2]bool
	// flow[0]: transfer a->b; flow[1]: transfer b->a (arena handle, -1
	// when idle).
	flow [2]int32
	// recv[0]: bytes b sent to a in the current rechoke interval;
	// recv[1]: bytes a sent to b.
	recv [2]float64
	// novel[i] counts the pieces the direction-i uploader has that its
	// downloader still lacks (novel[0]: a has, b lacks; novel[1]: b has,
	// a lacks). Maintained incrementally at connect time and whenever a
	// piece lands, so interest checks are O(1) instead of O(pieces).
	novel [2]int32
}

// dirOf returns the index for the direction u -> peer in flow/unchoked.
func dirOf(cn *connS, u int32) int {
	if cn.a == u {
		return 0
	}
	return 1
}

func peerOf(cn *connS, c int32) int32 {
	if cn.a == c {
		return cn.b
	}
	return cn.a
}

// flowS is one active piece transfer, stored in the Sim's flow arena.
type flowS struct {
	u, d   int32
	cn     int32 // conn arena handle
	piece  int32
	self   int32 // own arena handle (finish events carry it)
	active bool

	remaining float64 // bytes
	rate      float64 // bytes/sec
	rateCap   float64 // TCP window cap, bytes/sec (+Inf when disabled)
	lastT     float64
	moved     float64 // bytes transferred so far (flushed at teardown)
	eventT    float64 // time of the queued finish event (+Inf when none)
	// The next of u's uploads by downloader ID and of d's downloads by
	// uploader ID: the lists ratesChanged walks (-1 ends, and unlinked).
	nextUp, nextDown int32

	links    []topology.LinkID
	ledgered []topology.LinkID // links on the path with volume ledgers
}

// access is one direction of a client's access link: its capacity, the
// transfers splitting it and the fair share each gets.
type access struct {
	bps   float64 // bytes/sec
	share float64 // bps/n, recomputed by add wherever n changes
	n     int32   // active transfers (the list length)
}

// add changes the transfer count by dn and recomputes the fair share.
func (a *access) add(dn int32) {
	a.n += dn
	a.share = a.bps / float64(a.n)
}

// Sim is a single swarm simulation. Build with New, add clients, Run.
type Sim struct {
	cfg    Config
	rng    *rand.Rand
	now    float64
	pieces int
	hasW   int // bitset words per client

	// Event queue, and the push counter that is its FIFO tie-break.
	qseq   uint64
	events eventHeap

	incomplete int // clients still downloading

	// Per-client struct-of-arrays state, indexed by client ID; len(pid)
	// is the client count.
	up, down    []access // upload and download side of the access link
	joinAt      []float64
	pid         []topology.PID
	asn         []int
	isSeed      []bool
	joined      []bool
	done        []bool
	doneAt      []float64
	numHas      []int32
	upHead      []int32 // first active upload, by downloader ID; -1 none
	downHead    []int32 // first active download, by uploader ID; -1 none
	rechokeNum  []int32
	optimistic  []int32 // optimistic-unchoke conn handle, -1 none
	unchokeMark []int64 // epoch stamps replacing per-call sets
	wantMark    []int64
	hasBits     []uint64  // piece bitfields, hasW words per client
	pendBits    []uint64  // in-flight pieces, same layout
	avail       []int32   // neighbor availability, pieces per client
	connsOf     [][]int32 // conn handles, one per neighbor
	joinedPos   []int32   // position in joinedIDs
	tieM        []uint64  // tieM[n] = lemireM(n) for every tie count n <= pieces+1

	// Conn and flow arenas with free lists.
	conns    []connS
	connFree []int32
	flows    []flowS
	flowFree []int32

	// Incrementally maintained tracker candidate list (every joined
	// client, in join order); replaces the per-query O(clients) rebuild.
	joinedIDs   []int32
	joinedNodes []apptracker.Node

	linkRate  []float64 // bytes/sec per backbone link, P4P traffic only
	bgBytesPS []float64 // background, bytes/sec

	// Reusable scratch state keeping the event hot paths allocation-free
	// (see DESIGN.md §9). Epoch counters pair with the stamps on clients
	// so membership checks need no per-call maps.
	unchokeEpoch int64
	wantEpoch    int64
	candScratch  []rechokeCand
	poolScratch  []int32
	measureBuf   []float64

	streamHead int // streaming mode: highest published piece index + 1
	stats      RunStats

	// Test seam: rates_reference_test.go's resolver, used instead of the lists.
	refRates func(s *Sim, u, d int32)

	metrics metrics
}

// New builds a simulation.
func New(cfg Config) *Sim {
	cfg.withDefaults()
	if cfg.Graph == nil || cfg.Routing == nil {
		panic("p2psim: Graph and Routing are required")
	}
	if cfg.Selector == nil {
		panic("p2psim: Selector is required")
	}
	if cfg.BackgroundBps != nil && len(cfg.BackgroundBps) != cfg.Graph.NumLinks() {
		panic(fmt.Sprintf("p2psim: BackgroundBps has %d entries, graph %q has %d links",
			len(cfg.BackgroundBps), cfg.Graph.Name, cfg.Graph.NumLinks()))
	}
	if cfg.PieceBytes <= 0 || cfg.FileBytes <= 0 {
		panic(fmt.Sprintf("p2psim: PieceBytes %d and FileBytes %d must be positive", cfg.PieceBytes, cfg.FileBytes))
	}
	s := &Sim{
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		linkRate: make([]float64, cfg.Graph.NumLinks()),
	}
	s.pieces = int((cfg.FileBytes + cfg.PieceBytes - 1) / cfg.PieceBytes)
	if cfg.Streaming != nil {
		s.pieces = cfg.Streaming.totalPieces(&cfg)
	}
	s.hasW = (s.pieces + 63) / 64
	s.tieM = make([]uint64, s.pieces+2)
	for n := 2; n < len(s.tieM); n++ {
		s.tieM[n] = lemireM(uint32(n))
	}
	s.bgBytesPS = make([]float64, cfg.Graph.NumLinks())
	for i := range s.bgBytesPS {
		if cfg.BackgroundBps != nil {
			s.bgBytesPS[i] = cfg.BackgroundBps[i] / 8
		}
	}
	s.metrics.init(&cfg)
	return s
}

// AddClient registers a client, whose ID is the count of clients added
// before it; call before Run.
func (s *Sim) AddClient(spec ClientSpec) {
	id := len(s.pid)
	if !atLeastOneBit(spec.UpBps) || !atLeastOneBit(spec.DownBps) || !(spec.JoinAt >= 0) || math.IsInf(spec.JoinAt, 1) {
		panic(fmt.Sprintf("p2psim: client %d: UpBps %v and DownBps %v must be finite and at least 1 bit/s, JoinAt %v non-negative and finite",
			id, spec.UpBps, spec.DownBps, spec.JoinAt))
	}
	s.up = append(s.up, access{bps: spec.UpBps / 8})
	s.down = append(s.down, access{bps: spec.DownBps / 8})
	s.joinAt = append(s.joinAt, spec.JoinAt)
	s.pid = append(s.pid, spec.PID)
	s.asn = append(s.asn, spec.ASN)
	s.isSeed = append(s.isSeed, spec.IsSeed)
	s.joined = append(s.joined, false)
	s.done = append(s.done, false)
	s.doneAt = append(s.doneAt, 0)
	s.numHas = append(s.numHas, 0)
	s.upHead = append(s.upHead, -1)
	s.downHead = append(s.downHead, -1)
	s.rechokeNum = append(s.rechokeNum, 0)
	s.optimistic = append(s.optimistic, -1)
	s.unchokeMark = append(s.unchokeMark, 0)
	s.wantMark = append(s.wantMark, 0)
	s.joinedPos = append(s.joinedPos, 0)
	s.hasBits = append(s.hasBits, make([]uint64, s.hasW)...)
	s.pendBits = append(s.pendBits, make([]uint64, s.hasW)...)
	s.avail = append(s.avail, make([]int32, s.pieces)...)
	s.connsOf = append(s.connsOf, nil)

	if spec.IsSeed {
		s.done[id] = true
		s.doneAt[id] = spec.JoinAt
		if s.cfg.Streaming == nil {
			// Only bits [0, pieces) are ever set: the tail bits of the
			// last word stay zero so word-level scans cannot surface
			// phantom pieces.
			hw := s.hasWords(int32(id))
			for p := 0; p < s.pieces; p++ {
				hw[p>>6] |= 1 << uint(p&63)
			}
			s.numHas[id] = int32(s.pieces)
		}
		// A streaming source starts with nothing published; pieces
		// appear over time (see streaming.go).
	}
}

// atLeastOneBit is false for NaN, +Inf and x < 1. Below 1 bit/s the
// bytes/s can be subnormal, and then every finish time +Inf.
func atLeastOneBit(x float64) bool { return x >= 1 && !math.IsInf(x, 1) }

// Graph returns the simulation's topology.
func (s *Sim) Graph() *topology.Graph { return s.cfg.Graph }

// --- bitset accessors ---

func (s *Sim) hasWords(c int32) []uint64 {
	return s.hasBits[int(c)*s.hasW : (int(c)+1)*s.hasW]
}

func (s *Sim) pendWords(c int32) []uint64 {
	return s.pendBits[int(c)*s.hasW : (int(c)+1)*s.hasW]
}

// availOf is c's availability row: for each piece c lacks, how many of
// its neighbors hold it. Held pieces' counts are stale and never read.
func (s *Sim) availOf(c int32) []int32 {
	return s.avail[int(c)*s.pieces : (int(c)+1)*s.pieces]
}

func (s *Sim) hasPiece(c int32, p int) bool {
	return s.hasBits[int(c)*s.hasW+(p>>6)]&(1<<uint(p&63)) != 0
}

func (s *Sim) setHas(c int32, p int) {
	s.hasBits[int(c)*s.hasW+(p>>6)] |= 1 << uint(p&63)
}

func (s *Sim) setPending(c int32, p int) {
	s.pendBits[int(c)*s.hasW+(p>>6)] |= 1 << uint(p&63)
}

func (s *Sim) clearPending(c int32, p int) {
	s.pendBits[int(c)*s.hasW+(p>>6)] &^= 1 << uint(p&63)
}

// --- event queue ---

// push stamps the event with the global push counter (the FIFO
// tie-break of the total event order) and enqueues it.
func (s *Sim) push(ev event) {
	s.qseq++
	ev.qseq = s.qseq
	s.events.push(ev)
}

// Run executes the simulation to completion (all non-seed clients done)
// or MaxTime, and returns the collected metrics.
func (s *Sim) Run() *Result {
	s.start()
	for {
		ev, ok := s.events.pop()
		if !ok || !s.handle(ev) {
			break
		}
	}
	return s.finish()
}

// finish settles the flows still in flight and collects the result.
func (s *Sim) finish() *Result {
	for fi := range s.flows {
		f := &s.flows[fi]
		if f.active {
			s.progressFlow(f)
			s.flushFlow(f)
		}
	}
	return s.metrics.result(s)
}

// start schedules every client's join and the periodic control events.
func (s *Sim) start() {
	for id, seed := range s.isSeed {
		if !seed {
			s.incomplete++
		}
		s.push(event{t: s.joinAt[id], kind: evJoin, id: int32(id)})
	}
	s.push(event{t: rechokeInterval, kind: evRechoke})
	if s.cfg.ReselectInterval > 0 {
		s.push(event{t: s.cfg.ReselectInterval, kind: evReselect})
	}
	if s.cfg.MeasureInterval > 0 {
		s.push(event{t: s.cfg.MeasureInterval, kind: evMeasure})
	}
	if s.cfg.SampleInterval > 0 {
		s.push(event{t: s.cfg.SampleInterval, kind: evSample})
	}
	if s.cfg.Streaming != nil {
		s.cfg.Streaming.schedule(s)
	}
}

// handle advances the clock to a popped event and dispatches it; false
// ends the run (MaxTime reached, or every download complete).
func (s *Sim) handle(ev event) bool {
	s.stats.Events[ev.kind]++
	if ev.t > s.cfg.MaxTime {
		s.now = s.cfg.MaxTime
		return false
	}
	s.now = ev.t
	switch ev.kind {
	case evJoin:
		s.handleJoin(ev.id)
	case evRechoke:
		s.handleRechoke()
	case evFlowFinish:
		s.handleFlowFinish(ev.id)
	case evMeasure:
		s.handleMeasure()
	case evSample:
		s.handleSample()
	case evStreamPiece:
		s.handleStreamPiece(ev.id)
	case evReselect:
		s.handleReselect()
	}
	return s.incomplete > 0 || s.cfg.Streaming != nil
}

// --- join and neighbor management ---

func (s *Sim) handleJoin(c int32) {
	s.joined[c] = true
	// Tracker query: candidates are all previously joined clients (c is
	// appended to the list only after the query, so it never sees
	// itself). A joining client has no conns yet, so stamping each pick
	// is all the deduplication connect needs.
	self := apptracker.Node{ID: int(c), PID: s.pid[c], ASN: s.asn[c]}
	sel := s.cfg.Selector.Select(self, s.joinedNodes, s.cfg.NeighborTarget, s.rng)
	s.wantEpoch++
	for _, idx := range sel {
		if p := s.joinedIDs[idx]; s.wantMark[p] != s.wantEpoch {
			s.wantMark[p] = s.wantEpoch
			s.connect(c, p)
		}
	}
	s.joinedPos[c] = int32(len(s.joinedIDs))
	s.joinedIDs = append(s.joinedIDs, c)
	s.joinedNodes = append(s.joinedNodes, self)
	// Newly joined clients try to attract an unchoke at the very next
	// rechoke; nothing to start yet (no pieces, not unchoked).
	// A seed joining late can immediately serve: rechoke handles it.
}

// candidatesExcluding serves the tracker candidate list with client c
// removed, by swapping c's entry to the tail and returning the prefix.
// The swap persists (joinedPos tracks it), so exclusion is O(1) instead
// of an O(clients) rebuild per query. Selectors receive the node slice
// for the duration of Select only and must not retain it.
func (s *Sim) candidatesExcluding(c int32) []apptracker.Node {
	pos := s.joinedPos[c]
	last := int32(len(s.joinedIDs) - 1)
	if pos != last {
		oc := s.joinedIDs[last]
		s.joinedIDs[pos], s.joinedIDs[last] = oc, c
		s.joinedNodes[pos], s.joinedNodes[last] = s.joinedNodes[last], s.joinedNodes[pos]
		s.joinedPos[oc], s.joinedPos[c] = pos, last
	}
	return s.joinedNodes[:last]
}

// connect establishes a symmetric neighbor relationship between two
// clients not yet connected: the callers deduplicate with wantMark.
func (s *Sim) connect(a, b int32) {
	var ci int32
	if n := len(s.connFree); n > 0 {
		ci = s.connFree[n-1]
		s.connFree = s.connFree[:n-1]
	} else {
		s.conns = append(s.conns, connS{})
		ci = int32(len(s.conns) - 1)
	}
	s.conns[ci] = connS{a: a, b: b, flow: [2]int32{-1, -1}}
	s.connsOf[a] = append(s.connsOf[a], ci)
	s.connsOf[b] = append(s.connsOf[b], ci)
	s.stats.Connects++
	s.stats.PeakConns = max(s.stats.PeakConns, int64(len(s.conns)-len(s.connFree)))
	// Availability (of what each side lacks) and interest, word at a time.
	ah, bh := s.hasWords(a), s.hasWords(b)
	availA, availB := s.availOf(a), s.availOf(b)
	var novel [2]int32
	for w := range ah {
		aOnly, bOnly := ah[w]&^bh[w], bh[w]&^ah[w]
		novel[0] += int32(bits.OnesCount64(aOnly))
		novel[1] += int32(bits.OnesCount64(bOnly))
		for m := bOnly; m != 0; m &= m - 1 {
			availA[w<<6+bits.TrailingZeros64(m)]++
		}
		for m := aOnly; m != 0; m &= m - 1 {
			availB[w<<6+bits.TrailingZeros64(m)]++
		}
	}
	s.conns[ci].novel = novel
}

// interested reports whether u's neighbor over conn ci wants data from
// u: O(1) via the incrementally maintained per-conn novel-piece counters.
func (s *Sim) interested(ci, u int32) bool {
	cn := &s.conns[ci]
	return !s.done[peerOf(cn, u)] && cn.novel[dirOf(cn, u)] > 0
}

// gainPiece records that d now has the given piece, updating the lacking
// neighbors' availability and the per-conn interest counters.
func (s *Sim) gainPiece(d int32, piece int) {
	s.setHas(d, piece)
	s.numHas[d]++
	for _, ci := range s.connsOf[d] {
		cn := &s.conns[ci]
		p := peerOf(cn, d)
		if s.hasPiece(p, piece) {
			cn.novel[dirOf(cn, p)]-- // d no longer lacks a piece p has
		} else {
			s.avail[int(p)*s.pieces+piece]++
			cn.novel[dirOf(cn, d)]++ // d gained a piece p still lacks
		}
	}
}

// handleReselect re-runs tracker selection for every joined client and
// swaps out idle connections that the fresh selection dropped.
func (s *Sim) handleReselect() {
	for id := int32(0); int(id) < len(s.pid); id++ {
		if !s.joined[id] || s.isSeed[id] {
			continue
		}
		s.reselectClient(id)
	}
	if s.incomplete > 0 || s.cfg.Streaming != nil {
		s.push(event{t: s.now + s.cfg.ReselectInterval, kind: evReselect})
	}
}

func (s *Sim) reselectClient(c int32) {
	cands := s.candidatesExcluding(c)
	self := apptracker.Node{ID: int(c), PID: s.pid[c], ASN: s.asn[c]}
	sel := s.cfg.Selector.Select(self, cands, s.cfg.NeighborTarget, s.rng)
	s.wantEpoch++
	for _, idx := range sel {
		s.wantMark[s.joinedIDs[idx]] = s.wantEpoch
	}
	// Keep the conns to picked peers, clearing their stamps, and the busy
	// ones; drop the rest. disconnect removes connsOf[c][i] in place, so
	// i only advances past a kept conn.
	for i := 0; i < len(s.connsOf[c]); {
		ci := s.connsOf[c][i]
		cn := &s.conns[ci]
		if p := peerOf(cn, c); s.wantMark[p] == s.wantEpoch {
			s.wantMark[p] = 0
		} else if cn.flow[0] < 0 && cn.flow[1] < 0 {
			s.disconnect(ci)
			continue
		}
		i++
	}
	// Connect the picks still stamped, each once.
	for _, idx := range sel {
		if p := s.joinedIDs[idx]; s.wantMark[p] == s.wantEpoch {
			s.wantMark[p] = 0
			s.connect(c, p)
		}
	}
}

// disconnect tears down an idle neighbor relationship and returns its
// arena slot to the free list.
func (s *Sim) disconnect(ci int32) {
	cn := &s.conns[ci]
	if cn.flow[0] >= 0 || cn.flow[1] >= 0 {
		panic("p2psim: disconnect with active flow")
	}
	a, b := cn.a, cn.b
	s.removeConnRef(a, ci)
	s.removeConnRef(b, ci)
	s.stats.Disconnects++
	ah, bh := s.hasWords(a), s.hasWords(b)
	availA, availB := s.availOf(a), s.availOf(b)
	for w := range ah {
		for m := bh[w] &^ ah[w]; m != 0; m &= m - 1 {
			availA[w<<6+bits.TrailingZeros64(m)]--
		}
		for m := ah[w] &^ bh[w]; m != 0; m &= m - 1 {
			availB[w<<6+bits.TrailingZeros64(m)]--
		}
	}
	if s.optimistic[a] == ci {
		s.optimistic[a] = -1
	}
	if s.optimistic[b] == ci {
		s.optimistic[b] = -1
	}
	s.connFree = append(s.connFree, ci)
}

// removeConnRef drops the handle ci from c's connection list, keeping
// the remaining order (rechoke and tryStart iteration order is part of
// the deterministic trace).
func (s *Sim) removeConnRef(c, ci int32) {
	list := s.connsOf[c]
	for i, x := range list {
		if x == ci {
			s.connsOf[c] = append(list[:i], list[i+1:]...)
			return
		}
	}
}

// --- rechoke ---

func (s *Sim) handleRechoke() {
	for id := int32(0); int(id) < len(s.pid); id++ {
		if s.joined[id] {
			s.rechokeClient(id)
		}
	}
	// Reset interval byte counters (free arena slots included: zeroing
	// them is harmless and the straight sweep is cache-friendly).
	for i := range s.conns {
		s.conns[i].recv[0], s.conns[i].recv[1] = 0, 0
	}
	if s.incomplete > 0 || s.cfg.Streaming != nil {
		s.push(event{t: s.now + rechokeInterval, kind: evRechoke})
	}
}

// rechokeCand is one interested neighbor under rechoke evaluation.
// Candidates accumulate in Sim.candScratch so the per-client rechoke
// allocates nothing.
type rechokeCand struct {
	ci    int32
	peer  int32
	score float64
}

// cmpRechoke orders candidates by score descending, peer ID ascending;
// package-level so the sort call stays closure-free.
func cmpRechoke(a, b rechokeCand) int {
	if a.score != b.score {
		if a.score > b.score {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.peer, b.peer)
}

// rechokeClient re-evaluates u's unchoke set: top (uploadSlots-1) interested
// peers by bytes they sent us during the last interval (random for
// seeds), plus one optimistic slot rotated every optimisticEvery
// rechokes. Membership in the new unchoke set is tracked by stamping
// peers with the current unchoke epoch instead of building a set.
func (s *Sim) rechokeClient(u int32) {
	s.rechokeNum[u]++
	interested := s.candScratch[:0]
	for _, ci := range s.connsOf[u] {
		cn := &s.conns[ci]
		p := peerOf(cn, u)
		if !s.joined[p] || s.done[p] || cn.novel[dirOf(cn, u)] == 0 {
			continue
		}
		// Tit-for-tat: bytes p uploaded to u during the last interval.
		score := cn.recv[dirOf(cn, p)]
		if s.done[u] {
			// Seeds have no download to reciprocate; randomize.
			score = s.rng.Float64()
		}
		interested = append(interested, rechokeCand{ci: ci, peer: p, score: score})
	}
	slices.SortStableFunc(interested, cmpRechoke)
	s.candScratch = interested
	s.unchokeEpoch++
	mark := s.unchokeEpoch
	for i := 0; i < len(interested) && i < uploadSlots-1; i++ {
		s.unchokeMark[interested[i].peer] = mark
	}
	// Optimistic slot: a conn handle, which disconnect resets.
	opt := s.optimistic[u]
	rotate := opt < 0 || !s.interested(opt, u) ||
		int(s.rechokeNum[u])%optimisticEvery == 0
	if rotate {
		pool := s.poolScratch[:0]
		for _, c := range interested {
			if s.unchokeMark[c.peer] != mark {
				pool = append(pool, c.ci)
			}
		}
		if len(pool) > 0 {
			s.optimistic[u] = pool[s.rng.Intn(len(pool))]
		} else {
			s.optimistic[u] = -1
		}
		s.poolScratch = pool
		opt = s.optimistic[u]
	}
	if opt >= 0 {
		if p := peerOf(&s.conns[opt], u); s.unchokeMark[p] != mark && s.interested(opt, u) {
			s.unchokeMark[p] = mark
		}
	}
	// Apply: choke removed peers (in-flight pieces finish), unchoke new.
	for _, ci := range s.connsOf[u] {
		cn := &s.conns[ci]
		p := peerOf(cn, u)
		dir := dirOf(cn, u)
		was := cn.unchoked[dir]
		cn.unchoked[dir] = s.unchokeMark[p] == mark
		if !was && cn.unchoked[dir] {
			s.tryStartCn(ci, u, p)
		}
	}
}

// --- transfers ---

// tryStartCn begins a transfer u->d over conn ci if u unchokes d, the
// connection is idle in that direction, and d wants a piece u has
// (rarest-first piece choice, flow arena slot alloc, rate resolve).
func (s *Sim) tryStartCn(ci, u, d int32) {
	if s.done[d] || !s.joined[d] || !s.joined[u] {
		return
	}
	{
		cn := &s.conns[ci]
		dir := dirOf(cn, u)
		if !cn.unchoked[dir] || cn.flow[dir] >= 0 {
			return
		}
	}
	piece := s.pickPiece(u, d)
	if piece < 0 {
		return
	}
	fi := s.allocFlow()
	s.stats.PeakFlows = max(s.stats.PeakFlows, int64(len(s.flows)-len(s.flowFree)))
	f := &s.flows[fi]
	f.u, f.d, f.cn, f.piece, f.self = u, d, ci, int32(piece), fi
	f.active = true
	f.remaining = float64(s.cfg.PieceBytes)
	f.rate = 0
	f.rateCap = math.Inf(1)
	f.lastT = s.now
	f.moved = 0
	f.eventT = math.Inf(1)
	f.links = nil
	f.ledgered = f.ledgered[:0]
	if s.pid[u] != s.pid[d] {
		f.links = s.cfg.Routing.Path(s.pid[u], s.pid[d])
	}
	if s.cfg.TCPWindowBytes > 0 {
		rtt := baseRTTSec + 2*s.cfg.Routing.PropagationDelaySeconds(s.pid[u], s.pid[d])
		f.rateCap = s.cfg.TCPWindowBytes / rtt
	}
	if len(s.metrics.ledgers) > 0 {
		for _, e := range f.links {
			if _, ok := s.metrics.ledgers[e]; ok {
				f.ledgered = append(f.ledgered, e)
			}
		}
	}
	cn := &s.conns[ci]
	cn.flow[dirOf(cn, u)] = fi
	s.setPending(d, piece)
	s.up[u].add(1)
	s.down[d].add(1)
	up, down := s.upSlot(u, d), s.downSlot(d, u)
	f.nextUp, f.nextDown, *up, *down = *up, *down, fi, fi // splice fi in at both
	s.ratesChanged(u, d)
}

// allocFlow returns a flow arena slot: recycled from the free list when
// possible, freshly appended otherwise, with the event heap's position
// table grown alongside.
func (s *Sim) allocFlow() int32 {
	if n := len(s.flowFree); n > 0 {
		fi := s.flowFree[n-1]
		s.flowFree = s.flowFree[:n-1]
		return fi
	}
	s.flows = append(s.flows, flowS{})
	s.events.pos = append(s.events.pos, -1)
	return int32(len(s.flows) - 1)
}

func (s *Sim) freeFlow(fi int32) {
	f := &s.flows[fi]
	f.links = nil // owned by Routing; drop the alias
	s.flowFree = append(s.flowFree, fi)
}

// pickPiece chooses the locally-rarest piece that u has, d lacks, and d
// is not already fetching; ties break uniformly at random. The
// candidate set is computed word-at-a-time from the piece bitsets.
// Streaming mode instead fetches in order within the playback window.
func (s *Sim) pickPiece(u, d int32) int {
	if s.cfg.Streaming != nil {
		return s.pickStreamPiece(u, d)
	}
	uh, dh := s.hasWords(u), s.hasWords(d)
	dp := s.pendWords(d)
	avail := s.availOf(d)
	best, count := -1, 0
	bestAvail := int32(math.MaxInt32)
	for w := range uh {
		for m := uh[w] &^ dh[w] &^ dp[w]; m != 0; m &= m - 1 {
			p := w<<6 + bits.TrailingZeros64(m)
			a := avail[p]
			switch {
			case a < bestAvail:
				best, bestAvail, count = p, a, 1
			case a == bestAvail:
				count++
				if tieDraw(s.rng, int32(count), s.tieM[count]) {
					best = p
				}
			}
		}
	}
	return best
}

// lemireM is the multiplier m = ⌊(2⁶⁴−1)/n⌋+1 with which tieDraw takes
// remainders modulo n > 1 of 32-bit values without dividing (Lemire,
// Kaser and Kurz, "Faster remainder by direct computation", 2019).
func lemireM(n uint32) uint64 { return ^uint64(0)/uint64(n) + 1 }

// tieDraw is rng.Intn(n) == 0 for 0 < n < 2³¹, given m = lemireM(n):
// the same Int31 draws as math/rand's Int31n, whose stream is frozen (a
// mask for a power of two, otherwise rejection above 2³¹−1 − 2³¹ mod n),
// but with both remainders taken by multiplication.
func tieDraw(rng *rand.Rand, n int32, m uint64) bool {
	if n&(n-1) == 0 {
		return rng.Int31()&(n-1) == 0
	}
	rem, _ := bits.Mul64(m<<31, uint64(n)) // 2³¹ mod n
	limit := math.MaxInt32 - int32(rem)
	v := rng.Int31()
	for v > limit {
		v = rng.Int31()
	}
	return uint64(v)*m < m // n divides v
}

// progressFlow advances a flow's byte accounting to the current time.
// Cheap counters update here; per-PID aggregates flush once at flow
// teardown (flushFlow) to keep the hot path map-free.
func (s *Sim) progressFlow(f *flowS) {
	dt := s.now - f.lastT
	if dt > 0 && f.rate > 0 {
		bytes := f.rate * dt
		if bytes > f.remaining {
			bytes = f.remaining
		}
		f.remaining -= bytes
		f.moved += bytes
		cn := &s.conns[f.cn]
		cn.recv[dirOf(cn, f.d)] += bytes
		for _, e := range f.ledgered {
			s.metrics.ledgers[e].AddSpread(f.lastT, s.now, bytes)
		}
	}
	f.lastT = s.now
}

// flushFlow commits a flow's accumulated bytes to the aggregate
// metrics. Call exactly once, after the final progressFlow.
func (s *Sim) flushFlow(f *flowS) {
	if f.moved == 0 {
		return
	}
	s.metrics.flush(s, f)
	f.moved = 0
}

// upSlot returns the link (list head or nextUp field) at which u's
// upload to d sits or belongs: the first to a downloader not below d,
// u's uploads being kept in downloader-ID order (at most uploadSlots).
func (s *Sim) upSlot(u, d int32) *int32 {
	p := &s.upHead[u]
	for *p >= 0 && s.flows[*p].d < d {
		p = &s.flows[*p].nextUp
	}
	return p
}

// downSlot is upSlot for d's downloads, kept in uploader-ID order; the
// walk is as long as the neighbors serving d at once.
func (s *Sim) downSlot(d, u int32) *int32 {
	p := &s.downHead[d]
	for *p >= 0 && s.flows[*p].u < u {
		p = &s.flows[*p].nextDown
	}
	return p
}

// ratesChanged re-resolves rates after a flow u->d started or finished.
// Of what flowRate reads only up[u] and down[d] changed, so only u's
// uploads and d's downloads can have a new rate. They are visited in
// (uploader, downloader) order — d's downloads from below u, u's
// uploads, d's downloads from above u — which fixes the float order of
// the linkRate sums and the qseq order of finish events (DESIGN.md §18).
func (s *Sim) ratesChanged(u, d int32) {
	s.stats.RateResolves++
	if s.refRates != nil {
		s.refRates(s, u, d)
		return
	}
	fi := s.downHead[d]
	for ; fi >= 0 && s.flows[fi].u < u; fi = s.flows[fi].nextDown {
		s.rerate(&s.flows[fi])
	}
	for up := s.upHead[u]; up >= 0; up = s.flows[up].nextUp {
		s.rerate(&s.flows[up])
	}
	if fi >= 0 && s.flows[fi].u == u {
		fi = s.flows[fi].nextDown // u->d itself, visited among u's uploads
	}
	for ; fi >= 0; fi = s.flows[fi].nextDown {
		s.rerate(&s.flows[fi])
	}
}

// rerate gives a visited flow its current fair rate and, if that is a
// new rate, settles its progress and re-arms its finish event.
func (s *Sim) rerate(f *flowS) {
	s.stats.FlowsVisited++
	newRate := s.flowRate(f)
	if newRate == f.rate {
		return // the scheduled finish event is still exact
	}
	s.stats.FlowsRerated++
	s.progressFlow(f)
	s.applyRate(f, newRate)
	s.scheduleFinish(f)
}

// flowRate is the session-level TCP model of [3]/[4]: the transfer gets
// the minimum of the uploader's and downloader's per-connection fair
// shares, additionally capped by the window/RTT limit of the path.
func (s *Sim) flowRate(f *flowS) float64 {
	return min(f.rateCap, s.up[f.u].share, s.down[f.d].share)
}

// applyRate updates the flow's rate and the per-link rate accounting.
func (s *Sim) applyRate(f *flowS, rate float64) {
	delta := rate - f.rate
	for _, e := range f.links {
		s.linkRate[e] += delta
	}
	f.rate = rate
}

// scheduleFinish (re)arms the flow's finish event. The event only moves
// when the projected finish moved EARLIER than the queued one: push
// re-keys it in place, with a fresh qseq as if pushed anew. A later
// finish keeps the queued event, which then fires early, integrates
// exactly, and re-arms (handleFlowFinish's remaining > 0 branch). Rate
// decreases — the common case, every new flow joining a bottleneck
// slows its neighbours — therefore touch the queue not at all, and
// cost at most one early fire per scheduled event. Byte accounting is
// unaffected: progressFlow integrates the actually-applied rates
// regardless of when events fire.
func (s *Sim) scheduleFinish(f *flowS) {
	if f.rate <= 0 {
		s.events.remove(f.self)
		f.eventT = math.Inf(1)
		return // re-armed when a rate change occurs
	}
	t := s.now + f.remaining/f.rate
	if t >= f.eventT {
		return // finish moved later: the queued event fires early and re-arms
	}
	f.eventT = t
	s.push(event{t: t, kind: evFlowFinish, id: f.self})
}

func (s *Sim) handleFlowFinish(fi int32) {
	f := &s.flows[fi]
	f.eventT = math.Inf(1) // its event just popped
	s.progressFlow(f)
	if f.remaining > 1e-6 {
		// Rate dropped since scheduling; progress and re-arm.
		s.stats.EarlyFires++
		s.scheduleFinish(f)
		return
	}
	u, d, ci, piece := f.u, f.d, f.cn, int(f.piece)
	// Tear down the flow.
	f.active = false
	s.flushFlow(f)
	s.applyRate(f, 0)
	*s.upSlot(u, d), *s.downSlot(d, u) = f.nextUp, f.nextDown
	f.nextUp, f.nextDown = -1, -1
	s.freeFlow(fi)
	// f is dead past this point: the tryStart calls below may recycle
	// the slot or grow the arena (moving its backing array).
	cn := &s.conns[ci]
	cn.flow[dirOf(cn, u)] = -1
	s.up[u].add(-1)
	s.down[d].add(-1)
	s.clearPending(d, piece)
	// The downloader gains the piece.
	if !s.hasPiece(d, piece) {
		s.gainPiece(d, piece)
		if int(s.numHas[d]) == s.pieces && !s.done[d] {
			s.done[d] = true
			s.doneAt[d] = s.now
			s.incomplete--
		}
	}
	s.ratesChanged(u, d)
	// Continue on this connection and wake up d's other connections:
	// the new piece may unblock transfers in both roles.
	s.tryStartCn(ci, u, d)
	for _, ch := range s.connsOf[d] {
		cn := &s.conns[ch]
		p := peerOf(cn, d)
		if cn.unchoked[dirOf(cn, d)] {
			s.tryStartCn(ch, d, p)
		}
		if cn.unchoked[dirOf(cn, p)] {
			s.tryStartCn(ch, p, d)
		}
	}
	// u's freed upload slot may serve another pending unchoked peer.
	for _, ch := range s.connsOf[u] {
		cn := &s.conns[ch]
		p := peerOf(cn, u)
		if cn.unchoked[dirOf(cn, u)] {
			s.tryStartCn(ch, u, p)
		}
	}
}

// --- measurement hooks ---

func (s *Sim) handleMeasure() {
	if s.cfg.OnMeasure != nil {
		if s.measureBuf == nil {
			s.measureBuf = make([]float64, len(s.linkRate))
		}
		for i, r := range s.linkRate {
			// bytes/sec -> bits/sec; the running sum can drift a few
			// ulps below zero on an idle link, and a rate is never negative.
			s.measureBuf[i] = max(r*8, 0)
		}
		// The buffer is reused every interval; per the Config.OnMeasure
		// contract, callbacks copy it if they retain it.
		s.cfg.OnMeasure(s.now, s.measureBuf)
	}
	if s.incomplete > 0 || s.cfg.Streaming != nil {
		s.push(event{t: s.now + s.cfg.MeasureInterval, kind: evMeasure})
	}
}

func (s *Sim) handleSample() {
	s.metrics.sample(s)
	if s.incomplete > 0 || s.cfg.Streaming != nil {
		s.push(event{t: s.now + s.cfg.SampleInterval, kind: evSample})
	}
}
