package p2psim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"p4p/internal/charging"
	"p4p/internal/topology"
)

// metrics accumulates the measurements the paper's evaluation reports:
// per-client completion times, per-link cumulative P4P traffic (for
// bottleneck traffic and charging volumes), utilization samples over
// time, unit bandwidth-distance product, and the PID-pair traffic
// matrix for the locality tables.
type metrics struct {
	linkBytes  []float64
	samples    []Sample
	pidBytes   map[[2]topology.PID]float64
	bdpSum     float64 // Σ bytes x backbone hops
	totalBytes float64
	intraPID   float64
	ledgers    map[topology.LinkID]*charging.Ledger
}

// LedgerConfig attaches 5-minute volume ledgers to selected links
// (typically interdomain links under percentile billing). Set on
// Config via WatchLedgers.
type LedgerConfig struct {
	Links       []topology.LinkID
	IntervalSec float64
}

// Sample is one utilization snapshot.
type Sample struct {
	T float64
	// MaxUtil is the highest (background + P4P) utilization across
	// links at time T.
	MaxUtil float64
}

func (m *metrics) init(cfg *Config) {
	m.linkBytes = make([]float64, cfg.Graph.NumLinks())
	m.pidBytes = map[[2]topology.PID]float64{}
	m.ledgers = map[topology.LinkID]*charging.Ledger{}
	if cfg.WatchLedgers != nil {
		interval := cfg.WatchLedgers.IntervalSec
		if interval <= 0 {
			interval = 300
		}
		for _, e := range cfg.WatchLedgers.Links {
			m.ledgers[e] = charging.NewLedger(interval)
		}
	}
}

// flush commits a finished (or settled) flow's accumulated bytes to the
// aggregates. Ledgers are maintained incrementally in progressFlow
// because they need the time profile, not just the total.
func (m *metrics) flush(s *Sim, f *flowS) {
	bytes := f.moved
	m.totalBytes += bytes
	m.bdpSum += bytes * float64(len(f.links))
	for _, e := range f.links {
		m.linkBytes[e] += bytes
	}
	up, down := s.pid[f.u], s.pid[f.d]
	m.pidBytes[[2]topology.PID{up, down}] += bytes
	if up == down {
		m.intraPID += bytes
	}
}

// sample snapshots link utilizations.
func (m *metrics) sample(s *Sim) {
	smp := Sample{T: s.now}
	for i, l := range s.cfg.Graph.Links() {
		u := (s.bgBytesPS[i] + s.linkRate[i]) * 8 / l.CapacityBps
		if u > smp.MaxUtil {
			smp.MaxUtil = u
		}
	}
	m.samples = append(m.samples, smp)
}

// ClientStat is the per-client summary exposed in results.
type ClientStat struct {
	JoinAt float64
	Done   bool
	DoneAt float64
	IsSeed bool
}

// Result is the outcome of a simulation run.
type Result struct {
	Duration   float64
	Clients    []ClientStat
	LinkBytes  []float64
	Samples    []Sample
	TotalBytes float64
	// UnitBDP is Σ(bytes x backbone hops) / Σ bytes: the average number
	// of backbone links a unit of P2P traffic traverses (Figure 12a).
	UnitBDP float64
	// PIDBytes is the PID-pair traffic matrix. Sum it in a fixed key
	// order: map order moves the float sum's last bits.
	PIDBytes map[[2]topology.PID]float64
	// IntraPIDBytes is the traffic that never left its PID, summed in
	// flow-teardown order.
	IntraPIDBytes float64
	// Ledgers holds per-link interval volume ledgers for links listed
	// in Config.WatchLedgers.
	Ledgers map[topology.LinkID]*charging.Ledger
	RunStats
}

// RunStats counts what the engine did. RateResolves is one per flow
// start and one per finish, FlowsVisited the flows they recomputed a
// fair rate for, FlowsRerated those whose rate changed. Events counts
// pops by kind (EventKinds names them); EarlyFires are finish events
// that found bytes left. The peaks are of live conn and flow arena slots.
type RunStats struct {
	RateResolves, FlowsVisited, FlowsRerated int64
	Events                                   [numEventKinds]int64
	EarlyFires                               int64
	Connects, Disconnects                    int64
	PeakConns, PeakFlows                     int64
}

func (m *metrics) result(s *Sim) *Result {
	r := &Result{
		Duration:      s.now,
		LinkBytes:     m.linkBytes,
		Samples:       m.samples,
		TotalBytes:    m.totalBytes,
		PIDBytes:      m.pidBytes,
		IntraPIDBytes: m.intraPID,
		Ledgers:       m.ledgers,
		RunStats:      s.stats,
	}
	if m.totalBytes > 0 {
		r.UnitBDP = m.bdpSum / m.totalBytes
	}
	for id, joinAt := range s.joinAt {
		r.Clients = append(r.Clients, ClientStat{
			JoinAt: joinAt, Done: s.done[id], DoneAt: s.doneAt[id], IsSeed: s.isSeed[id],
		})
	}
	return r
}

// CompletionTimes returns the relative completion times (done - join)
// of all completed non-seed clients, sorted ascending.
func (r *Result) CompletionTimes() []float64 {
	var out []float64
	for _, c := range r.Clients {
		if c.IsSeed || !c.Done {
			continue
		}
		out = append(out, c.DoneAt-c.JoinAt)
	}
	sort.Float64s(out)
	return out
}

// MeanCompletionTime averages CompletionTimes (NaN when empty).
func (r *Result) MeanCompletionTime() float64 {
	ct := r.CompletionTimes()
	if len(ct) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range ct {
		sum += v
	}
	return sum / float64(len(ct))
}

// SwarmCompletionTime is the paper's "completion time" metric: the
// total time for the whole swarm to finish (the max relative time).
func (r *Result) SwarmCompletionTime() float64 {
	ct := r.CompletionTimes()
	if len(ct) == 0 {
		return math.NaN()
	}
	return ct[len(ct)-1]
}

// BottleneckTraffic returns the link carrying the most cumulative P4P
// bytes and its volume — the paper's "P2P traffic on top of the most
// utilized link" metric.
func (r *Result) BottleneckTraffic() (topology.LinkID, float64) {
	best, bestV := topology.LinkID(-1), 0.0
	for i, v := range r.LinkBytes {
		if v > bestV {
			best, bestV = topology.LinkID(i), v
		}
	}
	return best, bestV
}

// PeakUtilization returns the maximum sampled utilization.
func (r *Result) PeakUtilization() float64 {
	peak := 0.0
	for _, s := range r.Samples {
		if s.MaxUtil > peak {
			peak = s.MaxUtil
		}
	}
	return peak
}

// Fingerprint is what must repeat exactly for a seed: completions out
// of leechers, the bits of the mean completion time and of the total
// bytes, and an FNV-1a hash of the per-link byte counts' bits.
func (r *Result) Fingerprint() string {
	leechers := 0
	for _, c := range r.Clients {
		if !c.IsSeed {
			leechers++
		}
	}
	h := fnv.New64a()
	var b [8]byte
	for _, v := range r.LinkBytes {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%d/%d mean=%x bytes=%x links=%x", len(r.CompletionTimes()), leechers,
		math.Float64bits(r.MeanCompletionTime()), math.Float64bits(r.TotalBytes), h.Sum64())
}
