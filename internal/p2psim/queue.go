package p2psim

// The simulator's event queue is eventHeap, an indexed binary min-heap
// over the total order (t, kind, qseq): qseq is a global push counter, so
// ties in time and kind resolve FIFO. A total order is what makes every
// pop, and so every run, independent of how the heap happens to lay out
// its slice; FuzzQueueOrder pins it against a min-scan over a plain slice.
//
// A flow has at most one finish event queued, and the heap records where
// it sits (pos, keyed by flow arena handle), so a finish that moves
// earlier is re-keyed in place and one that is no longer due is removed:
// nothing stale is ever queued.

type event struct {
	t    float64 // absolute simulation time
	qseq uint64  // global push counter: FIFO tie-break for equal (t, kind)
	kind uint8
	id   int32 // client ID (evJoin, evStreamPiece) or flow arena index (evFlowFinish)
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

// eventBefore is the queue's total order.
func eventBefore(a, b event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.qseq < b.qseq
}

// eventHeap is a typed binary min-heap over events, indexed by flow.
type eventHeap struct {
	ev []event
	// pos[f] is the index in ev of flow f's finish event, -1 when none is
	// queued; it grows with the flow arena (Sim.allocFlow).
	pos []int32
}

// place stores e at ev[i], recording a finish event's position.
func (h *eventHeap) place(i int, e event) {
	h.ev[i] = e
	if e.kind == evFlowFinish {
		h.pos[e.id] = int32(i)
	}
}

// up moves ev[i] towards the root until its parent is before it.
func (h *eventHeap) up(i int) {
	e := h.ev[i]
	for i > 0 {
		p := (i - 1) / 2
		if !eventBefore(e, h.ev[p]) {
			break
		}
		h.place(i, h.ev[p])
		i = p
	}
	h.place(i, e)
}

// down moves ev[i] towards the leaves until no child is before it, and
// reports whether it moved.
func (h *eventHeap) down(i int) bool {
	e, i0, n := h.ev[i], i, len(h.ev)
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && eventBefore(h.ev[j2], h.ev[j]) {
			j = j2
		}
		if !eventBefore(h.ev[j], e) {
			break
		}
		h.place(i, h.ev[j])
		i = j
	}
	h.place(i, e)
	return i > i0
}

// push enqueues e. A finish event for a flow that already has one queued
// re-keys that event in place instead, and must not be later than it.
func (h *eventHeap) push(e event) {
	if e.kind == evFlowFinish {
		if i := h.pos[e.id]; i >= 0 {
			h.ev[i] = e
			h.up(int(i))
			return
		}
	}
	h.ev = append(h.ev, e)
	h.up(len(h.ev) - 1)
}

func (h *eventHeap) pop() (event, bool) {
	if len(h.ev) == 0 {
		return event{}, false
	}
	e := h.ev[0]
	h.removeAt(0)
	return e, true
}

// remove dequeues flow f's finish event, if one is queued.
func (h *eventHeap) remove(f int32) {
	if i := h.pos[f]; i >= 0 {
		h.removeAt(int(i))
	}
}

// removeAt deletes ev[i], moving the tail event into its place.
func (h *eventHeap) removeAt(i int) {
	if e := h.ev[i]; e.kind == evFlowFinish {
		h.pos[e.id] = -1
	}
	n := len(h.ev) - 1
	last := h.ev[n]
	h.ev = h.ev[:n]
	if i < n {
		h.place(i, last)
		if !h.down(i) {
			h.up(i)
		}
	}
}
