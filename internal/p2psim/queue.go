package p2psim

// The simulator's event queue is eventHeap, a binary min-heap over the
// total order (t, kind, qseq): qseq is a global push counter, so ties in
// time and kind resolve FIFO. A total order is what makes every pop, and
// so every run, independent of how the heap happens to lay out its
// slice; FuzzQueueOrder pins it against a min-scan over a plain slice.

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

// eventHeap is a typed binary min-heap over events.
type eventHeap struct {
	ev []event
}

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
