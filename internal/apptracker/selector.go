// Package apptracker implements the application-side peer selection of
// the paper's Section 6.2: the native (random) policy of stock
// BitTorrent trackers, the delay-localized policy used as the locality
// baseline, the three-stage P4P policy driven by p-distance weights, and
// the Pando-style upload/download bandwidth-matching policy built on the
// optimization of Section 4.
//
// Policies are expressed over abstract Nodes so they can serve both the
// discrete-event simulator and the HTTP appTracker binary.
package apptracker

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"

	"p4p/internal/core"
	"p4p/internal/topology"
)

// Node is the selector's view of one client.
type Node struct {
	ID  int // opaque, unique within a swarm
	PID topology.PID
	ASN int
}

// Selector chooses up to m peers for a client from a candidate set.
// Implementations must not return self or duplicates, must be
// deterministic given the rng, and must return candidate indices.
//
// A Selector need not be safe for concurrent Select calls on one value
// (P4P reuses working memory between calls), just as the *rand.Rand it
// is handed is not: callers serialise the two together.
type Selector interface {
	// Select returns indices into candidates. Fewer than m may be
	// returned when candidates run out.
	Select(self Node, candidates []Node, m int, rng *rand.Rand) []int
	// Name identifies the policy in experiment output.
	Name() string
}

// Random is the native BitTorrent appTracker: uniform random peers.
type Random struct{}

// Name implements Selector.
func (Random) Name() string { return "native" }

// Select implements Selector. It draws distinct candidates with Floyd's
// sampling algorithm — O(m) draws regardless of the candidate count,
// where the previous full-permutation draw was O(n) per call and
// dominated join handling in large-swarm simulations. The picks so far
// are the only record of what is drawn (a scan of at most m entries per
// draw, m being a neighbour count), so the result slice is the call's
// one allocation.
//
// The simulator call sites pre-exclude self from candidates, so the
// m-round draw below is plain Floyd there. Self can still appear at the
// HTTP appTracker and example call sites; node IDs are unique, so it is
// drawn at most once, and the slot it consumed is refilled with one
// uniform draw over the untouched indices. Drawing m+1 distinct uniform
// elements and discarding self leaves a uniform m-subset of the
// remaining n-1 candidates, so no index is over- or under-sampled
// either way.
func (Random) Select(self Node, candidates []Node, m int, rng *rand.Rand) []int {
	n := len(candidates)
	if m > n {
		m = n
	}
	if m <= 0 {
		return nil
	}
	out := make([]int, 0, m)
	selfAt := -1 // index self was drawn at, if it was
	for j := n - m; j < n; j++ {
		t := rng.Intn(j + 1)
		if drawn(out, selfAt, t) {
			t = j
		}
		if candidates[t].ID == self.ID {
			selfAt = t
			continue
		}
		out = append(out, t)
	}
	if selfAt < 0 || m == n {
		// m == n with self drawn: every candidate is already in the
		// draw, so the documented fewer-than-m case applies.
		return out
	}
	// Refill the slot self consumed: one uniform draw over the n-m
	// untouched indices. Rejection sampling needs n/(n-m) expected
	// attempts; the linear-scan fallback keeps the loop bounded even if
	// the rng is pathologically unlucky (at most ~(m/n)^64 probability,
	// and exact whenever a single free index remains).
	for attempts := 0; attempts < 64; attempts++ {
		t := rng.Intn(n)
		if !drawn(out, selfAt, t) {
			return append(out, t)
		}
	}
	start := rng.Intn(n)
	for k := 0; k < n; k++ {
		t := (start + k) % n
		if !drawn(out, selfAt, t) {
			return append(out, t)
		}
	}
	return out
}

// drawn reports whether Random.Select has already drawn index t: as one
// of its picks, or as the index self sits at (-1 while undrawn).
func drawn(picks []int, selfAt, t int) bool {
	if t == selfAt {
		return true
	}
	for _, c := range picks {
		if c == t {
			return true
		}
	}
	return false
}

// Localized is delay-localized BitTorrent: it ranks candidates by
// round-trip delay and picks the closest. Delay is supplied by the
// caller (the simulator derives it from propagation distances; a real
// deployment would ping).
type Localized struct {
	// Delay returns an RTT estimate between two nodes, never NaN; lower
	// is closer.
	Delay func(a, b Node) float64
}

// Name implements Selector.
func (*Localized) Name() string { return "localized" }

// Select implements Selector. Candidates rank by (delay, ID, index), a
// total order, so an unstable sort gives the one answer. Delay is called
// once per candidate, in candidate order: it may draw.
func (l *Localized) Select(self Node, candidates []Node, m int, rng *rand.Rand) []int {
	type cand struct {
		d       float64
		id, idx int
	}
	cands := make([]cand, 0, len(candidates))
	for i, c := range candidates {
		if c.ID == self.ID {
			continue
		}
		cands = append(cands, cand{l.Delay(self, c), c.ID, i})
	}
	slices.SortFunc(cands, func(a, b cand) int {
		return cmp.Or(cmp.Compare(a.d, b.d), cmp.Compare(a.id, b.id), cmp.Compare(a.idx, b.idx))
	})
	if len(cands) > m {
		cands = cands[:max(m, 0)]
	}
	out := make([]int, len(cands))
	for i, c := range cands {
		out[i] = c.idx
	}
	return out
}

// ViewProvider hands a selector the current p-distance external view for
// one AS. Implementations typically query an iTracker (or its portal
// client) and cache by engine version.
type ViewProvider interface {
	// ViewFor returns the distance view from the perspective of the
	// given AS, or nil if no iTracker covers it.
	ViewFor(asn int) DistanceView
}

// DistanceView is what a ViewProvider hands out: a published, immutable
// core.View. It is the view itself rather than an interface over it
// because the selector addresses it by column — the view's memoised PID
// index, PID ranks and weight rows — and nothing else ever implemented
// it.
type DistanceView = *core.View

// The paper's locality bounds (Section 6.2): the fraction of peers
// chosen at the client's own PID, and the cumulative fraction chosen
// inside its AS, including the intra-PID stage.
const (
	upperBoundIntraPID = 0.70
	upperBoundInterPID = 0.80
)

// P4PConfig tunes the three-stage P4P selection. Zero values take the
// paper's defaults.
type P4PConfig struct {
	// Gamma is the concave transform exponent applied to the inter-PID
	// weights for robustness (default 0.5; 1 disables).
	Gamma float64
}

func (c P4PConfig) withDefaults() P4PConfig {
	if c.Gamma == 0 {
		c.Gamma = 0.5
	}
	return c
}

// P4P is the paper's three-stage staged peer selection (Section 6.2):
//
//  1. intra-PID: up to upperBoundIntraPID*m peers at the client's PID;
//  2. inter-PID: up to upperBoundInterPID*m peers (cumulative) inside
//     the client's AS, sampled with probability proportional to the
//     p-distance weights w_ij = 1/p_ij (concavified);
//  3. inter-AS: the remainder from other ASes, with per-AS quota
//     inversely proportional to the p-distance from the client's PID to
//     that AS, using the client's own AS's view ("the appTracker uses
//     the p-distances from AS-n's view").
//
// A P4P owns the working memory its Select reuses from call to call, so
// one value must not run two Selects at once. Every caller already
// serialises on the *rand.Rand it passes in; selectors are not shared
// between simulation cells. The zero scratch is ready to use:
// &P4P{Views: v} is all the construction there is.
type P4P struct {
	Views  ViewProvider
	Config P4PConfig

	scratch selectScratch
}

// Name implements Selector.
func (*P4P) Name() string { return "p4p" }

// selectScratch is Select's working memory, grown on demand and kept.
// Each candidate has one key: its PID's rank in the view (len(view.PIDs)
// if unlisted), plus ext if it is in another AS. A counting sort by key
// lays order out as the client's PID (class 0), its AS's other PIDs
// ascending (class 1), then the other ASes' candidates, regrouped stably
// by AS (class 2+g, g-th by ASN): each of the reference's per-PID lists
// is a range of order.
type selectScratch struct {
	rk      []int    // rk[i] = key of candidates[i]; -1 for self, and once taken
	cls     []int    // cls[i] = g if candidates[i] is in the g-th external AS; unset otherwise
	hist    []int    // counts, then offsets, by key
	classN  []int    // counts, then end offsets in order, by external AS
	firsts  []int    // the first candidate of each PID on one side of the AS boundary
	tmp     []int    // the external candidates by AS; later the backfill classes
	order   []int    // candidate indices by (class, key, index)
	ext     int      // len(view.PIDs)+1, the external keys' offset
	selfKey int      // the key of the client's own PID
	n0, nIn int      // order[:n0] is class 0, order[n0:nIn] class 1
	asns    []int    // distinct external ASNs, ascending
	ases    []asInfo // parallel to asns
	buckets []bucket
}

// bucket is one (class, PID) list: the n candidates order[lo:lo+n],
// taken from the end.
type bucket struct {
	lo, n int
	w     float64 // the PID's selection weight, floored
}

type asInfo struct {
	b0, b1 int     // its buckets; b0 == b1 once it is exhausted
	dist   float64 // least p-distance from the client to any of its candidates
	w      float64
}

// resized returns buf with length n. Growth leaves headroom because a
// swarm's candidate list grows by one join at a time.
func resized[T any](buf []T, n int) []T {
	if n <= cap(buf) {
		return buf[:n]
	}
	return make([]T, n, n+n/2)
}

// Select implements Selector. A candidate whose PID the view does not
// list is treated as unreachable (p-distance +Inf, the floor weight);
// when the view is missing, or does not list the client's own PID,
// applications make default decisions (the paper's robustness answer)
// and the selection is Random's.
func (p *P4P) Select(self Node, candidates []Node, m int, rng *rand.Rand) []int {
	cfg := p.Config.withDefaults()
	view := p.Views.ViewFor(self.ASN)
	if view == nil {
		return Random{}.Select(self, candidates, m, rng)
	}
	selfCol, ok := view.Index(self.PID)
	if !ok {
		return Random{}.Select(self, candidates, m, rng)
	}
	s := &p.scratch
	s.classify(view, self, candidates)
	eligible, adj := s.sortIntoBuckets(view, view.D[selfCol], view.Weights(self.PID, cfg.Gamma), candidates)

	// The cumulative in-AS bound adapts to relative distances, per
	// Section 6.2: the default is an upper bound, raised toward 1 when
	// external ASes are far more expensive than in-AS peers (and
	// conversely the default applies when interdomain distances are
	// comparable).
	intraCap := int(upperBoundIntraPID * float64(m))
	interFrac := upperBoundInterPID
	if adj > 0 {
		interFrac += (1 - upperBoundInterPID) * adj
	}
	interCap := int(interFrac * float64(m))
	// Untaken candidates by backfill class: other ASes, other PIDs in
	// this AS, the client's own PID.
	left := [3]int{eligible - s.nIn, s.nIn - s.n0, s.n0}
	var out []int
	if limit := min(m, eligible); limit > 0 {
		out = make([]int, 0, limit)
	}

	// Stage 1: intra-PID.
	intra := s.order[:s.n0]
	shuffle(rng, intra)
	for _, i := range intra {
		if len(out) >= intraCap {
			break
		}
		out = append(out, i)
		s.rk[i] = -1
		left[2]--
	}

	// Stage 2: inter-PID within the AS, weighted sampling by PID.
	inB0, inB1 := 0, len(s.buckets)
	if len(s.ases) > 0 {
		inB1 = s.ases[0].b0
	}
	s.shuffleBuckets(rng, inB0, inB1)
	for len(out) < interCap {
		b := s.sample(rng, inB0, inB1)
		if b < 0 {
			break
		}
		out = append(out, s.pop(b))
		left[1]--
	}

	// Stage 3: inter-AS. The per-AS quota is inversely proportional to
	// the p-distance from the client's PID to the AS (approximated by
	// the minimum p-distance to any of that AS's candidate PIDs), and
	// within the chosen AS candidates are drawn by the same
	// inverse-distance PID weights as stage 2, so crossing traffic
	// prefers the cheaper interdomain circuits.
	asTotal := 0.0
	for g := range s.ases {
		a := &s.ases[g]
		s.shuffleBuckets(rng, a.b0, a.b1)
		a.w = 1.0
		if a.dist > 0 {
			a.w = 1 / a.dist
		} else if a.dist == 0 {
			a.w = 1e6
		}
		asTotal += a.w
	}
	for len(out) < m && asTotal > 0 {
		// Draw the AS. chosenASN < 0 also reads "none yet", so a
		// negative ASN ends the stage, as it always has.
		x := rng.Float64() * asTotal
		chosen, chosenASN := -1, -1
		for g := range s.ases {
			if s.ases[g].b0 == s.ases[g].b1 {
				continue
			}
			x -= s.ases[g].w
			if x <= 0 || chosenASN < 0 {
				chosen, chosenASN = g, s.asns[g]
				if x <= 0 {
					break
				}
			}
		}
		if chosenASN < 0 {
			break
		}
		// Draw the PID within the AS by inverse p-distance.
		a := &s.ases[chosen]
		b := s.sample(rng, a.b0, a.b1)
		if b < 0 {
			// AS exhausted: retire it.
			asTotal -= a.w
			a.w = 0
			a.b1 = a.b0
			continue
		}
		out = append(out, s.pop(b))
		left[0]--
	}

	// Backfill if the staged quotas could not reach m but untaken
	// candidates remain (robustness: connectivity first). Preference
	// order keeps the locality caps meaningful: other ASes, then other
	// PIDs in this AS, then the client's own PID as a last resort. Each
	// class is its untaken candidates in index order, shuffled.
	if len(out) < m {
		ends := [3]int{left[0], left[0] + left[1], left[0] + left[1] + left[2]}
		pos := [3]int{0, ends[0], ends[1]}
		for i, key := range s.rk {
			if key >= 0 {
				k := 1
				if key >= s.ext {
					k = 0
				} else if key == s.selfKey {
					k = 2
				}
				s.tmp[pos[k]] = i
				pos[k]++
			}
		}
		lo := 0
		for _, hi := range ends {
			shuffle(rng, s.tmp[lo:hi])
			for _, i := range s.tmp[lo:hi] {
				if len(out) >= m {
					break
				}
				out = append(out, i)
			}
			lo = hi
		}
	}
	return out
}

// classify fills rk, the key histogram and asns for one call.
func (s *selectScratch) classify(view *core.View, self Node, candidates []Node) {
	cols := view.Columns()
	s.ext, s.selfKey = len(view.PIDs)+1, cols.RankOf(self.PID)
	s.rk, s.cls = resized(s.rk, len(candidates)), resized(s.cls, len(candidates))
	s.hist = resized(s.hist, 2*s.ext)
	clear(s.hist)
	s.asns = s.asns[:0]
	last := self.ASN
	for i := range candidates {
		c := &candidates[i]
		if c.ID == self.ID {
			s.rk[i] = -1
			continue
		}
		k := cols.RankOf(c.PID)
		if c.ASN != self.ASN {
			if c.ASN != last {
				last = c.ASN
				if g, found := slices.BinarySearch(s.asns, last); !found {
					s.asns = slices.Insert(s.asns, g, last)
				}
			}
			k += s.ext
		}
		s.rk[i] = k
		s.hist[k]++
	}
	s.ases = resized(s.ases, len(s.asns))
}

// sortIntoBuckets counting-sorts the classified candidates into order
// and cuts classes 1 and up into buckets. It returns the number of
// candidates sorted (all but self) and the inter-AS adjustment.
func (s *selectScratch) sortIntoBuckets(view *core.View, dist, weights []float64, candidates []Node) (int, float64) {
	// The own-PID key first, then every other key in ascending order, a
	// bucket each. Zeroing the own key's count as its offset keeps it out
	// of the bucket loop.
	s.n0 = s.hist[s.selfKey]
	s.hist[s.selfKey] = 0
	s.buckets = s.buckets[:0]
	n, inB := s.n0, 0
	for k, c := range s.hist {
		if k == s.ext {
			s.nIn, inB = n, len(s.buckets)
		}
		if c > 0 {
			s.hist[k] = n
			s.buckets = append(s.buckets, bucket{lo: n, n: c})
			n += c
		}
	}
	s.tmp, s.order = resized(s.tmp, n), resized(s.order, n)
	for i, k := range s.rk {
		if k >= 0 {
			s.order[s.hist[k]] = i
			s.hist[k]++
		}
	}
	for b := range s.buckets[:inB] {
		s.buckets[b].w, _ = pidTerms(view, dist, weights, candidates[s.order[s.buckets[b].lo]].PID)
	}
	if s.nIn == n {
		return n, 0 // no external candidates: no inter-AS adjustment
	}
	extSum, extN := s.sumFirsts(view, dist, candidates, inB, len(s.buckets))
	inSum, inN := s.sumFirsts(view, dist, candidates, 0, inB)

	// Regroup the external candidates by AS, stably, and cut each AS's
	// run into per-PID buckets.
	s.classN = resized(s.classN, len(s.asns))
	clear(s.classN)
	g, last := 0, s.asns[0]
	for _, i := range s.order[s.nIn:] {
		if asn := candidates[i].ASN; asn != last {
			last, g = asn, sort.SearchInts(s.asns, asn)
		}
		s.cls[i] = g
		s.classN[g]++
	}
	s.buckets = s.buckets[:inB]
	end := s.nIn
	for g, c := range s.classN {
		s.classN[g] = end
		end += c
	}
	for _, i := range s.order[s.nIn:] {
		s.tmp[s.classN[s.cls[i]]] = i
		s.classN[s.cls[i]]++
	}
	copy(s.order[s.nIn:], s.tmp[s.nIn:])
	lo := s.nIn
	for g, hi := range s.classN {
		a := &s.ases[g]
		a.b0, a.dist = len(s.buckets), math.Inf(1)
		for lo < hi {
			first := s.order[lo]
			cnt := 1
			for lo+cnt < hi && s.rk[s.order[lo+cnt]] == s.rk[first] {
				cnt++
			}
			w, d := pidTerms(view, dist, weights, candidates[first].PID)
			s.buckets = append(s.buckets, bucket{lo: lo, n: cnt, w: w})
			a.dist = min(a.dist, d)
			lo += cnt
		}
		a.b1 = len(s.buckets)
	}
	return n, interASAdjustment(inSum, inN, extSum, extN)
}

// sumFirsts adds up one side of the adjustment: the client's finite
// p-distances to the PIDs of buckets [b0, b1) in the order of their first
// candidates, which head the buckets cut by key, and the count of terms.
func (s *selectScratch) sumFirsts(view *core.View, dist []float64, candidates []Node, b0, b1 int) (float64, int) {
	s.firsts = s.firsts[:0]
	for _, b := range s.buckets[b0:b1] {
		s.firsts = append(s.firsts, s.order[b.lo])
	}
	slices.Sort(s.firsts)
	sum, n := 0.0, 0
	for _, i := range s.firsts {
		if col, ok := view.Index(candidates[i].PID); ok && !math.IsInf(dist[col], 1) {
			sum += dist[col]
			n++
		}
	}
	return sum, n
}

// pidTerms returns a PID's selection weight, floored, and its p-distance
// from the client (+Inf if the view does not list it).
func pidTerms(view *core.View, dist, weights []float64, pid topology.PID) (w, d float64) {
	w, d = 0, math.Inf(1)
	if col, ok := view.Index(pid); ok {
		w, d = weights[col], dist[col]
	}
	if w <= 0 {
		// Unreachable PIDs, and PIDs the view does not list, still get a
		// small floor so robustness is preserved.
		w = 1e-9
	}
	return w, d
}

func (s *selectScratch) shuffleBuckets(rng *rand.Rand, b0, b1 int) {
	for _, b := range s.buckets[b0:b1] {
		shuffle(rng, s.order[b.lo:b.lo+b.n])
	}
}

// sample draws one of the buckets [b0, b1) that still hold candidates,
// with probability proportional to its weight. It returns -1, without
// drawing, when none does.
func (s *selectScratch) sample(rng *rand.Rand, b0, b1 int) int {
	total := 0.0
	for _, b := range s.buckets[b0:b1] {
		if b.n > 0 {
			total += b.w
		}
	}
	if total == 0 {
		return -1
	}
	x := rng.Float64() * total
	for i, b := range s.buckets[b0:b1] {
		if b.n == 0 {
			continue
		}
		x -= b.w
		if x <= 0 {
			return b0 + i
		}
	}
	// Floating point slack: return the last non-empty bucket.
	for b := b1 - 1; b >= b0; b-- {
		if s.buckets[b].n > 0 {
			return b
		}
	}
	return -1
}

// pop takes the last candidate of bucket b.
func (s *selectScratch) pop(b int) int {
	bk := &s.buckets[b]
	bk.n--
	i := s.order[bk.lo+bk.n]
	s.rk[i] = -1
	return i
}

// interASAdjustment compares the mean p-distance to external-AS
// candidate PIDs against the mean to in-AS candidate PIDs (each distinct
// reachable PID counted once, the client's own excluded) and returns a
// value in [0, 1]: 0 when external peering is no more expensive than
// in-AS (keep the default bound), approaching 1 as external distances
// dwarf in-AS ones (pull nearly all peers in-AS).
func interASAdjustment(inSum float64, inN int, extSum float64, extN int) float64 {
	if inN == 0 || extN == 0 {
		return 0
	}
	inAvg := inSum / float64(inN)
	extAvg := extSum / float64(extN)
	if extAvg <= 0 || extAvg <= inAvg {
		return 0
	}
	// Smoothly approach 1 as extAvg/inAvg grows; at 2x the adjustment
	// is 0.5, at 10x it is 0.9.
	const eps = 1e-12
	ratio := extAvg / (inAvg + eps)
	return 1 - 1/ratio
}

// shuffle is rng.Shuffle(len(s), swap) with the swap written inline
// instead of called through a func value: the same Fisher–Yates making
// the same draws. Below 2³¹−1 those are Rand.int31n's, Lemire's
// multiply-and-reject on Uint32; above it, Int63n, as in the stdlib.
func shuffle(rng *rand.Rand, s []int) {
	i := len(s) - 1
	for ; i > 1<<31-1-1; i-- {
		j := int(rng.Int63n(int64(i + 1)))
		s[i], s[j] = s[j], s[i]
	}
	for ; i > 0; i-- {
		n := uint32(i + 1)
		prod := uint64(rng.Uint32()) * uint64(n)
		if uint32(prod) < n {
			for thresh := -n % n; uint32(prod) < thresh; {
				prod = uint64(rng.Uint32()) * uint64(n)
			}
		}
		j := int(prod >> 32)
		s[i], s[j] = s[j], s[i]
	}
}
