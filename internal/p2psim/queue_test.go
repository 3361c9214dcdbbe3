package p2psim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"p4p/internal/apptracker"
	"p4p/internal/topology"
)

// drain pops every event from q, failing if the queue disagrees with
// its own length accounting.
func drainCalendar(t *testing.T, q *calendarQueue) []event {
	t.Helper()
	var out []event
	n := q.len()
	for {
		e, ok := q.pop()
		if !ok {
			break
		}
		out = append(out, e)
	}
	if len(out) != n {
		t.Fatalf("drained %d events, len() reported %d", len(out), n)
	}
	return out
}

// TestCalendarQueueOverflow pushes events far beyond the wheel horizon
// and checks they migrate back and pop in order.
func TestCalendarQueueOverflow(t *testing.T) {
	q := newCalendarQueue(0.01) // horizon = 64 buckets x 0.01s = 0.64s
	var want []float64
	for i := 0; i < 200; i++ {
		// Times spanning 0..1000s: almost everything lands in overflow.
		tm := float64(i*i) / 40
		q.push(event{t: tm, kind: evFlowFinish, qseq: uint64(i)})
		want = append(want, tm)
	}
	got := drainCalendar(t, q)
	if len(got) != len(want) {
		t.Fatalf("popped %d events, pushed %d", len(got), len(want))
	}
	for i := 1; i < len(got); i++ {
		if eventBefore(got[i], got[i-1]) {
			t.Fatalf("pop %d out of order: %+v after %+v", i, got[i], got[i-1])
		}
	}
}

// TestCalendarQueueTieBreak checks that events with identical timestamps
// pop ordered by kind, then FIFO by push sequence — the total order the
// simulation's determinism contract relies on.
func TestCalendarQueueTieBreak(t *testing.T) {
	q := newCalendarQueue(0.5)
	const tm = 3.25
	// Push in an order that disagrees with both kind and seq order.
	q.push(event{t: tm, kind: evSample, qseq: 0})
	q.push(event{t: tm, kind: evFlowFinish, qseq: 1, id: 7})
	q.push(event{t: tm, kind: evFlowFinish, qseq: 2, id: 8})
	q.push(event{t: tm, kind: evJoin, qseq: 3})
	q.push(event{t: tm, kind: evRechoke, qseq: 4})
	got := drainCalendar(t, q)
	wantKinds := []uint8{evJoin, evRechoke, evFlowFinish, evFlowFinish, evSample}
	for i, e := range got {
		if e.kind != wantKinds[i] {
			t.Fatalf("pop %d kind = %d, want %d", i, e.kind, wantKinds[i])
		}
	}
	if got[2].id != 7 || got[3].id != 8 {
		t.Fatalf("equal (t, kind) events not FIFO: got ids %d, %d", got[2].id, got[3].id)
	}
}

// checkQueueOrder runs one push/pop schedule, read from data, through
// the calendar queue and the reference heap, and requires the same pops
// in the same order, then the same drain. The first byte picks the
// starting bucket width. Each later byte is one act: a push of one
// event, a run of up to 64 pushes (enough to force wheel resizes), or a
// run of up to 64 pops. A pushed event takes two more bytes: one picks
// its kind and whether its time is a whole number of seconds from now
// (clusters of identical timestamps), near, mid-range or far beyond the
// wheel's horizon (overflow), or one of four times whose slot nears or
// passes int64's range, +Inf included; the other byte is its offset.
// Past the end of data every byte reads as zero.
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
	cal := newCalendarQueue(0.001 * float64(1+next()%100))
	ref := &eventHeap{}
	now := 0.0
	var qseq uint64
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
		qseq++
		cal.push(e)
		ref.push(e)
	}
	pop := func() bool {
		ce, cok := cal.pop()
		re, rok := ref.pop()
		switch {
		case cok != rok:
			t.Fatalf("byte %d: calendar ok=%v heap ok=%v", at, cok, rok)
		case ce != re:
			t.Fatalf("byte %d: calendar popped %+v, heap popped %+v", at, ce, re)
		case cok && ce.t < now:
			t.Fatalf("byte %d: time went backwards (%g < %g)", at, ce.t, now)
		}
		if cok {
			now = ce.t
		}
		return cok
	}
	for at < len(data) {
		act := next()
		switch act % 4 {
		case 0:
			push()
		case 1:
			for k := 0; k <= act/4; k++ {
				push()
			}
		default:
			for k := 0; k <= act/4; k++ {
				pop()
			}
		}
	}
	for pop() {
	}
}

func FuzzQueueOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{49, 0xfd, 0, 0, 0, 0x01, 0x02, 0x03, 0x05, 0x06, 0x07, 0x0a, 0xff})
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		data := make([]byte, 1024)
		r.Read(data)
		f.Add(data)
	}
	f.Fuzz(checkQueueOrder)
}

// TestCalendarQueueMatchesHeap cross-checks the calendar queue against
// the reference heap, pop for pop: on random schedules through
// checkQueueOrder (FuzzQueueOrder's check), and on the trace of a real
// swarm run — pop order being all a run takes from its queue, equal pops
// there are what make a simulation's results independent of the queue
// under it.
func TestCalendarQueueMatchesHeap(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		data := make([]byte, 20000)
		rand.New(rand.NewSource(seed)).Read(data)
		checkQueueOrder(t, data)
	}

	// One swarm run, driven as Run drives it, recording every pop and
	// the sim's push counter before it. Every pushed event is later
	// popped or left in the queue, so the events themselves are recovered
	// by push number and the exact interleaving can be replayed.
	s := queueEquivSim()
	s.start()
	var pops []event
	var pushedBefore []uint64
	for {
		pushedBefore = append(pushedBefore, s.qseq)
		ev, ok := s.calQ.pop()
		if !ok {
			break
		}
		pops = append(pops, ev)
		if !s.handle(ev) {
			break
		}
	}
	if len(pops) < 1000 {
		t.Fatalf("swarm trace has only %d pops", len(pops))
	}
	events := make([]event, s.qseq+1) // by push number, from 1
	for _, e := range append(pops, drainCalendar(t, s.calQ)...) {
		events[e.qseq] = e
	}
	cal, ref := newCalendarQueue(s.cfg.RechokeInterval/256), &eventHeap{}
	next := uint64(1)
	pushThrough := func(last uint64) {
		for ; next <= last; next++ {
			cal.push(events[next])
			ref.push(events[next])
		}
	}
	for k, want := range pops {
		pushThrough(pushedBefore[k])
		ce, _ := cal.pop()
		re, _ := ref.pop()
		if ce != want || re != want {
			t.Fatalf("swarm trace pop %d: run popped %+v, replayed calendar %+v, heap %+v", k, want, ce, re)
		}
	}
	pushThrough(s.qseq)
	for _, ce := range drainCalendar(t, cal) {
		if re, _ := ref.pop(); ce != re {
			t.Fatalf("swarm trace drain: calendar popped %+v, heap popped %+v", ce, re)
		}
	}
	if ref.len() != 0 {
		t.Fatalf("swarm trace drain: heap holds %d more events than the calendar", ref.len())
	}
}

// queueEquivSim builds a small but feature-dense swarm for the
// queue-trace and reproducibility tests.
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
