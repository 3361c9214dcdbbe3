package p2psim

import (
	"cmp"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"p4p/internal/apptracker"
	"p4p/internal/topology"
)

// TestEventHeapTieBreak checks that events with identical timestamps
// pop ordered by kind, then FIFO by push sequence — the total order the
// simulation's determinism contract relies on.
func TestEventHeapTieBreak(t *testing.T) {
	q := eventHeap{pos: noneQueued(9)}
	const tm = 3.25
	// Push in an order that disagrees with both kind and seq order.
	q.push(event{t: tm, kind: evSample, qseq: 0})
	q.push(event{t: tm, kind: evFlowFinish, qseq: 1, id: 7})
	q.push(event{t: tm, kind: evFlowFinish, qseq: 2, id: 8})
	q.push(event{t: tm, kind: evJoin, qseq: 3})
	q.push(event{t: tm, kind: evRechoke, qseq: 4})
	var got []event
	for e, ok := q.pop(); ok; e, ok = q.pop() {
		got = append(got, e)
	}
	wantKinds := []uint8{evJoin, evRechoke, evFlowFinish, evFlowFinish, evSample}
	if len(got) != len(wantKinds) {
		t.Fatalf("popped %d events, pushed %d", len(got), len(wantKinds))
	}
	for i, e := range got {
		if e.kind != wantKinds[i] {
			t.Fatalf("pop %d kind = %d, want %d", i, e.kind, wantKinds[i])
		}
	}
	if got[2].id != 7 || got[3].id != 8 {
		t.Fatalf("equal (t, kind) events not FIFO: got ids %d, %d", got[2].id, got[3].id)
	}
}

// noneQueued is a position table for n flows with no event queued.
func noneQueued(n int) []int32 {
	pos := make([]int32, n)
	for i := range pos {
		pos[i] = -1
	}
	return pos
}

// refBefore is the queue's total order (t, kind, qseq), spelled out
// here rather than read from eventBefore, so that a wrong eventBefore
// disagrees with the reference instead of steering it.
func refBefore(a, b event) bool {
	return cmp.Or(cmp.Compare(a.t, b.t), cmp.Compare(a.kind, b.kind), cmp.Compare(a.qseq, b.qseq)) < 0
}

// queueFlows is how many flow handles checkQueueOrder's finish events
// draw from, few enough that re-keys and removes often find one queued.
const queueFlows = 16

// checkQueueOrder runs one schedule, read from data, through eventHeap
// and a slow reference (an unordered slice whose pop scans for the
// minimum by refBefore), and requires the same pops in the same order,
// then the same drain. Each byte is one act: a push of one event, a run
// of up to 43 pushes, a re-key, a remove, one pop or a run of up to 32. A
// pushed event takes two more bytes: one picks its kind and whether its
// time is a whole number of seconds from now (clusters of identical
// timestamps), near, mid-range or far ahead, or one of 1e15, 1e18,
// 1e300 and +Inf; the other byte is its offset, and for a finish event
// also the first of queueFlows handles tried for one with nothing
// queued (none free: it is pushed as a sample). A re-key moves the
// finish event of a queued handle, found from the next byte, earlier
// (to now, or a fraction of the way there picked by one more byte),
// with a fresh qseq, as scheduleFinish does; a remove dequeues the
// handle the next byte names, if it has an event queued. After every
// act the position table must name each queued finish event's index,
// and -1 for every handle with none. Past the end of data every byte
// reads as zero.
func checkQueueOrder(t *testing.T, data []byte) {
	t.Helper()
	at := 0
	next := func() int {
		if at >= len(data) {
			return 0
		}
		at++
		return int(data[at-1])
	}
	heap := eventHeap{pos: noneQueued(queueFlows)}
	var ref []event
	now := 0.0
	var qseq uint64
	// refFlows is, by flow handle, the index in ref of its finish event,
	// -1 if none.
	refFlows := func() (where [queueFlows]int) {
		for h := range where {
			where[h] = -1
		}
		for i, e := range ref {
			if e.kind == evFlowFinish {
				where[e.id] = i
			}
		}
		return where
	}
	// queuedFrom is the first handle from b on with an event queued
	// (want true) or none (want false), and its index in ref; -1 if
	// there is none.
	queuedFrom := func(b int, want bool) (int, int) {
		where := refFlows()
		for k := range queueFlows {
			if h := (b + k) % queueFlows; (where[h] >= 0) == want {
				return h, where[h]
			}
		}
		return -1, -1
	}
	push := func() {
		x, y := next(), float64(next())
		tm := now
		switch x % 5 {
		case 0:
			tm += float64(int(y) % 3)
		case 1:
			tm += y / 256 * 0.2
		case 2:
			tm += 10 + y*4
		case 3:
			tm += y / 256 * 5
		default:
			tm = max(tm, []float64{1e15, 1e18, 1e300, math.Inf(1)}[int(y)%4])
		}
		e := event{t: tm, kind: uint8(x / 5 % 7), qseq: qseq, id: int32(qseq)}
		if e.kind == evFlowFinish {
			if h, _ := queuedFrom(int(y), false); h >= 0 {
				e.id = int32(h)
			} else {
				e.kind = evSample
			}
		}
		qseq++
		heap.push(e)
		ref = append(ref, e)
	}
	rekey := func() {
		h, i := queuedFrom(next(), true)
		if h < 0 {
			return
		}
		tm, b := now, next()
		if b != 0 && !math.IsInf(ref[i].t, 1) {
			tm += (ref[i].t - now) * float64(b) / 256
		} else if b != 0 {
			tm += float64(b)
		}
		if !(tm < ref[i].t) {
			return // not earlier: scheduleFinish would keep the queued event
		}
		e := event{t: tm, kind: evFlowFinish, qseq: qseq, id: int32(h)}
		qseq++
		heap.push(e)
		ref[i] = e
	}
	remove := func() {
		h := next() % queueFlows
		heap.remove(int32(h))
		if i := refFlows()[h]; i >= 0 {
			ref = slices.Delete(ref, i, i+1)
		}
	}
	checkPositions := func() {
		where := refFlows()
		for h, i := range heap.pos {
			switch ri := where[h]; {
			case (i >= 0) != (ri >= 0):
				t.Fatalf("byte %d: flow %d position %d, reference has its event at %d", at, h, i, ri)
			case i >= 0 && (int(i) >= len(heap.ev) || heap.ev[i] != ref[ri]):
				t.Fatalf("byte %d: flow %d position %d does not hold its event %+v", at, h, i, ref[ri])
			}
		}
		if len(heap.ev) != len(ref) {
			t.Fatalf("byte %d: heap holds %d events, reference %d", at, len(heap.ev), len(ref))
		}
	}
	pop := func() bool {
		he, hok := heap.pop()
		rok := len(ref) > 0
		var re event
		if rok {
			m := 0
			for i := range ref {
				if refBefore(ref[i], ref[m]) {
					m = i
				}
			}
			re = ref[m]
			ref[m] = ref[len(ref)-1]
			ref = ref[:len(ref)-1]
		}
		switch {
		case hok != rok:
			t.Fatalf("byte %d: heap ok=%v reference ok=%v", at, hok, rok)
		case he != re:
			t.Fatalf("byte %d: heap popped %+v, reference popped %+v", at, he, re)
		case hok && he.t < now:
			t.Fatalf("byte %d: time went backwards (%g < %g)", at, he.t, now)
		}
		checkPositions()
		if hok {
			now = he.t
		}
		return hok
	}
	for at < len(data) {
		act := next()
		switch act % 6 {
		case 0:
			push()
		case 1:
			for k := 0; k <= act/6; k++ {
				push()
			}
		case 2:
			rekey()
		case 3:
			remove()
		case 4:
			pop()
		default:
			for k := 0; k <= act/8; k++ {
				pop()
			}
		}
		checkPositions()
	}
	for pop() {
	}
}

func FuzzQueueOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xfd, 0, 0, 0, 0x01, 0x02, 0x03, 0x05, 0x06, 0x07, 0x0a, 0xff})
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		data := make([]byte, 1024)
		r.Read(data)
		f.Add(data)
	}
	f.Fuzz(checkQueueOrder)
}

// queueEquivSim builds a small but feature-dense swarm for the
// reproducibility tests.
func queueEquivSim() *Sim {
	g := topology.Abilene()
	r := topology.ComputeRouting(g)
	s := New(Config{
		Graph:            g,
		Routing:          r,
		Selector:         apptracker.Random{},
		Seed:             17,
		FileBytes:        4 << 20,
		ReselectInterval: 15,
		SampleInterval:   5,
		MeasureInterval:  10,
	})
	pids := g.AggregationPIDs()
	s.AddClient(ClientSpec{PID: pids[0], ASN: 1, UpBps: 100e6, DownBps: 100e6, IsSeed: true})
	for i := 0; i < 40; i++ {
		s.AddClient(ClientSpec{
			PID:     pids[i%len(pids)],
			ASN:     1,
			UpBps:   15e6,
			DownBps: 40e6,
			JoinAt:  float64(i) * 0.8,
		})
	}
	return s
}

// TestIdenticalRunsAreDeepEqual pins reproducibility: two runs of the
// same configuration and seed produce deep-equal results.
func TestIdenticalRunsAreDeepEqual(t *testing.T) {
	a := queueEquivSim().Run()
	b := queueEquivSim().Run()
	if !reflect.DeepEqual(a.Clients, b.Clients) || a.TotalBytes != b.TotalBytes {
		t.Fatal("identical runs are not reproducible")
	}
}
