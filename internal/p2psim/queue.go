package p2psim

import "math/bits"

// The simulator's event queue is a calendarQueue: a bucketed time wheel
// with O(1) amortized push/pop (a binary heap's sift paths were ~40-55%
// of BenchmarkSimMidSwarm CPU). eventHeap, the binary min-heap it
// replaced, stays as its overflow bucket and as the reference
// TestCalendarQueueMatchesHeap replays traces against.
//
// The total order is (t, kind, qseq): qseq is a global push counter, so
// ties in time and kind resolve FIFO. A total order is what lets the two
// be pinned pop-for-pop identical.

type event struct {
	t    float64 // absolute simulation time
	qseq uint64  // global push counter: FIFO tie-break for equal (t, kind)
	kind uint8
	id   int32 // client ID (evJoin, evStreamPiece) or flow arena index (evFlowFinish)
	seq  int32 // flow schedule stamp (evFlowFinish lazy deletion)
}

const (
	evJoin uint8 = iota
	evRechoke
	evFlowFinish
	evMeasure
	evSample
	evStreamPiece
	evReselect
	numEventKinds
)

// EventKinds names the event kinds, in the order of RunStats.Events.
var EventKinds = [numEventKinds]string{"join", "rechoke", "flow-finish", "measure", "sample", "stream-piece", "reselect"}

// eventBefore is the total order shared by both queue implementations.
func eventBefore(a, b event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.qseq < b.qseq
}

// siftUp restores the min-heap property after appending an element.
func siftUp(ev []event) {
	j := len(ev) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !eventBefore(ev[j], ev[i]) {
			break
		}
		ev[i], ev[j] = ev[j], ev[i]
		j = i
	}
}

// siftDown restores the min-heap property over ev[:n] starting at the
// root.
func siftDown(ev []event, n int) {
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && eventBefore(ev[j2], ev[j1]) {
			j = j2
		}
		if !eventBefore(ev[j], ev[i]) {
			break
		}
		ev[i], ev[j] = ev[j], ev[i]
		i = j
	}
}

// heapify builds a min-heap in place (Floyd's bottom-up construction,
// O(n)).
func heapify(ev []event) {
	for i := len(ev)/2 - 1; i >= 0; i-- {
		// Sift ev[i] down within the subtree rooted at i.
		j := i
		for {
			c1 := 2*j + 1
			if c1 >= len(ev) {
				break
			}
			c := c1
			if c2 := c1 + 1; c2 < len(ev) && eventBefore(ev[c2], ev[c1]) {
				c = c2
			}
			if !eventBefore(ev[c], ev[j]) {
				break
			}
			ev[j], ev[c] = ev[c], ev[j]
			j = c
		}
	}
}

// eventHeap is a typed binary min-heap over events: the overflow bucket
// for events beyond the wheel horizon, and the reference implementation
// the calendar queue is verified against.
type eventHeap struct {
	ev []event
}

func (h *eventHeap) len() int { return len(h.ev) }

func (h *eventHeap) push(e event) {
	h.ev = append(h.ev, e)
	siftUp(h.ev)
}

func (h *eventHeap) pop() (event, bool) {
	if len(h.ev) == 0 {
		return event{}, false
	}
	n := len(h.ev) - 1
	h.ev[0], h.ev[n] = h.ev[n], h.ev[0]
	siftDown(h.ev, n)
	e := h.ev[n]
	h.ev[n] = event{}
	h.ev = h.ev[:n]
	return e, true
}

// calendarQueue is a classic calendar queue (Brown 1988) specialized for
// the simulator: a power-of-two ring of time buckets of fixed width plus
// an overflow heap for events beyond the wheel horizon.
//
// Invariant: every event in the wheel has slot(t) in [curSlot,
// curSlot+len(buckets)), so a bucket only ever holds events of a single
// slot and the head bucket's minimum (by eventBefore) is the global
// wheel minimum. Overflow events migrate into the wheel as soon as their
// slot enters the horizon — checked on every pop, before the head bucket
// is consulted, so an overflow event can never be overtaken by a later
// wheel event.
//
// The wheel resizes (doubling buckets, re-deriving the bucket width from
// the observed event span) whenever the wheel population exceeds twice
// the bucket count, keeping expected bucket occupancy O(1) from
// mid-swarm (hundreds of in-flight events) to 100k-peer scale.
type calendarQueue struct {
	buckets [][]event
	// occ is an occupancy bitset over bucket indices (one bit per
	// bucket), letting pop jump straight to the next populated slot
	// instead of stepping the head bucket-by-bucket across gaps.
	occ      []uint64
	mask     int64
	width    float64
	invWidth float64
	curSlot  int64
	// heapSlot is the slot whose bucket is currently maintained as a
	// min-heap: when the head reaches an occupied bucket it is heapified
	// once (O(k)), after which pops sift down and same-slot pushes sift
	// up, both O(log k). This matters because the simulator's events
	// arrive in huge same-instant clusters (flows sharing a bottleneck
	// get synchronized finish times by the max-min rate allocation), so
	// a single bucket routinely holds hundreds of events no matter how
	// narrow the buckets are — per-pop min-scans or sorted-insert shifts
	// over such a bucket are O(k) each. -1 when no bucket is heapified.
	heapSlot int64
	wheelN   int
	overflow eventHeap
}

const (
	calInitialBuckets = 64
	calMaxBuckets     = 1 << 17
	calMinWidth       = 1e-9
	// calMaxSlot is where slotOf saturates: far past any horizon, yet
	// far from overflowing when a horizon is added to it.
	calMaxSlot = 1 << 62
)

func newCalendarQueue(width float64) *calendarQueue {
	if width < calMinWidth {
		width = calMinWidth
	}
	return &calendarQueue{
		buckets:  make([][]event, calInitialBuckets),
		occ:      make([]uint64, calInitialBuckets/64),
		mask:     calInitialBuckets - 1,
		width:    width,
		invWidth: 1 / width,
		heapSlot: -1,
	}
}

// place inserts an in-horizon event into its wheel bucket, maintaining
// the occupancy bitset. An event landing in the currently heapified
// head bucket sifts up to keep the heap property; other buckets are
// plain appends.
func (q *calendarQueue) place(e event, s int64) {
	b := s & q.mask
	if len(q.buckets[b]) == 0 {
		q.occ[b>>6] |= 1 << uint(b&63)
	}
	q.buckets[b] = append(q.buckets[b], e)
	if s == q.heapSlot {
		siftUp(q.buckets[b])
	}
	q.wheelN++
}

// nextOccDelta returns the ring distance from the head position to the
// first occupied bucket (0 when the head bucket itself is occupied).
// Must only be called with wheelN > 0.
func (q *calendarQueue) nextOccDelta() int64 {
	pos := q.curSlot & q.mask
	w := int(pos >> 6)
	off := uint(pos & 63)
	if m := q.occ[w] >> off; m != 0 {
		return int64(bits.TrailingZeros64(m))
	}
	d := int64(64) - int64(off)
	for i := 1; ; i++ {
		wi := w + i
		if wi >= len(q.occ) {
			wi -= len(q.occ)
		}
		if m := q.occ[wi]; m != 0 {
			return d + int64(bits.TrailingZeros64(m))
		}
		d += 64
	}
}

// slotOf maps a time to its slot. A time whose slot would not fit an
// int64, +Inf included, takes calMaxSlot: converting it would be
// implementation-defined (MinInt64 on amd64, which push would clamp to
// the head, popping it before earlier events).
func (q *calendarQueue) slotOf(t float64) int64 {
	if s := t * q.invWidth; s < calMaxSlot {
		return int64(s)
	}
	return calMaxSlot
}

func (q *calendarQueue) len() int { return q.wheelN + q.overflow.len() }

func (q *calendarQueue) push(e event) {
	s := q.slotOf(e.t)
	if s < q.curSlot {
		// Defensive: an event at the current instant whose slot rounds
		// just below the head lands in the head bucket; the head heap
		// still orders it correctly.
		s = q.curSlot
	}
	if s >= q.curSlot+int64(len(q.buckets)) {
		q.overflow.push(e)
		return
	}
	q.place(e, s)
	if q.wheelN > 2*len(q.buckets) && len(q.buckets) < calMaxBuckets {
		q.resize()
	}
}

func (q *calendarQueue) pop() (event, bool) {
	if q.wheelN == 0 && q.overflow.len() == 0 {
		return event{}, false
	}
	for {
		// Migrate overflow events whose slot has entered the horizon.
		horizon := q.curSlot + int64(len(q.buckets))
		for q.overflow.len() > 0 {
			s := q.slotOf(q.overflow.ev[0].t)
			if s >= horizon {
				break
			}
			e, _ := q.overflow.pop()
			if s < q.curSlot {
				s = q.curSlot
			}
			q.place(e, s)
		}
		if q.wheelN == 0 {
			// Wheel drained but overflow has far-future events: jump the
			// head straight to the overflow minimum's slot.
			q.curSlot = q.slotOf(q.overflow.ev[0].t)
			continue
		}
		if d := q.nextOccDelta(); d > 0 {
			// Jump over the empty slots, then re-run the overflow
			// migration: the horizon moved with the head.
			q.curSlot += d
			continue
		}
		bi := q.curSlot & q.mask
		if q.heapSlot != q.curSlot {
			heapify(q.buckets[bi])
			q.heapSlot = q.curSlot
		}
		b := q.buckets[bi]
		n := len(b) - 1
		b[0], b[n] = b[n], b[0]
		siftDown(b, n)
		e := b[n]
		b[n] = event{}
		q.buckets[bi] = b[:n]
		if n == 0 {
			q.occ[bi>>6] &^= 1 << uint(bi&63)
		}
		q.wheelN--
		return e, true
	}
}

// resize doubles the bucket count and re-derives the bucket width from
// the span of events currently in the wheel, targeting ~O(1) occupancy.
func (q *calendarQueue) resize() {
	var all []event
	minT, maxT := 0.0, 0.0
	for i := range q.buckets {
		for _, e := range q.buckets[i] {
			if len(all) == 0 || e.t < minT {
				minT = e.t
			}
			if len(all) == 0 || e.t > maxT {
				maxT = e.t
			}
			all = append(all, e)
		}
		q.buckets[i] = nil
	}
	size := len(q.buckets)
	for size < 2*len(all) && size < calMaxBuckets {
		size <<= 1
	}
	if span := maxT - minT; span > 0 && len(all) > 0 {
		w := 2 * span / float64(len(all))
		if w < calMinWidth {
			w = calMinWidth
		}
		q.width = w
		q.invWidth = 1 / w
	}
	q.buckets = make([][]event, size)
	q.occ = make([]uint64, size/64)
	q.mask = int64(size) - 1
	q.wheelN = 0
	q.heapSlot = -1
	if len(all) > 0 {
		q.curSlot = q.slotOf(minT)
	}
	for _, e := range all {
		s := q.slotOf(e.t)
		if s < q.curSlot {
			s = q.curSlot
		}
		if s >= q.curSlot+int64(size) {
			q.overflow.push(e)
			continue
		}
		q.place(e, s)
	}
}
