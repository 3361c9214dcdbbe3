package main

import (
	"sync"
	"syscall"
	"time"
)

// callers is the number of generator goroutines. Each owns one
// keep-alive connection, so a workload is driven by two callers over two
// connections — this box has two CPUs, shared with the servers.
const callers = 2

// outcome is what one generated operation reports back.
type outcome struct {
	// class names the op kind; it is recorded on the root span.
	class string
	// ok is false when the op errored, was refused or failed its oracle.
	ok bool
	// uncounted marks a slot that is not an op (portal-churn's price
	// update: its cost shows in fresh_p50_us and itracker.update_us).
	uncounted bool
	// fresh, when positive, is a freshness sample the op measured.
	fresh time.Duration
}

// site is one workload's program under test together with the
// generator-side state of its callers.
type site interface {
	// op runs operation i of caller c. root is the op's root span when
	// tracing is on.
	op(c, i int, root spanRef) outcome
	// quiesce runs the checks that need both callers stopped.
	quiesce() error
	// counters snapshots the counts the mechanism checks read.
	counters() map[string]int64
	// close stops every server and waits for it.
	close()
}

// clock lets the open-loop scheduler run against a fake time in tests.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// Sleep busy-waits. On this virtualised two-CPU box, waking an idle CPU
// costs 0.1 ms on a good minute and 4 ms on a bad one (time.Sleep and
// nanosleep(2) both measured), so a sender that sleeps between slots
// would time the hypervisor: the callers keep their CPUs awake instead.
// A waiting caller holds its P, which is free to do so: every server
// goroutine runs on behalf of a caller that is parked on its reply.
func (wallClock) Sleep(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
	}
}

// generator drives a site. Each caller's op index runs on across
// warm-up and phases, so a run is one seeded schedule per caller.
type generator struct {
	site site
	rec  *recorder
	clk  clock
	next [callers]int
}

// one runs caller c's next op under a root span.
func (g *generator) one(c int) outcome {
	i := g.next[c]
	g.next[c]++
	root := g.rec.beginRoot(spanGenOp)
	out := g.site.op(c, i, root.spanRef)
	g.rec.end(root, out.class)
	return out
}

// warm runs n ops per caller back to back and reports how many failed.
func (g *generator) warm(n int) (failed int) {
	var wg sync.WaitGroup
	bad := make([]int, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < n; k++ {
				if !g.one(c).ok {
					bad[c]++
				}
			}
		}(c)
	}
	wg.Wait()
	for _, b := range bad {
		failed += b
	}
	return failed
}

// closedResult is one closed-loop phase: both callers issue ops back to
// back, each waiting for its reply, as appTrackers do.
type closedResult struct {
	ops    int // completed and correct
	failed int
	wall   time.Duration
	cpu    time.Duration // process user+sys over the phase
	fresh  []time.Duration
}

func (r closedResult) attempted() int { return r.ops + r.failed }

func (g *generator) closed(d time.Duration) closedResult {
	type part struct {
		ops, failed int
		fresh       []time.Duration
	}
	parts := make([]part, callers)
	cpu0 := processCPU()
	start := g.clk.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := &parts[c]
			for g.clk.Now().Before(deadline) {
				out := g.one(c)
				switch {
				case !out.ok:
					p.failed++
				case !out.uncounted:
					p.ops++
				}
				if out.fresh > 0 {
					p.fresh = append(p.fresh, out.fresh)
				}
			}
		}(c)
	}
	wg.Wait()
	res := closedResult{wall: g.clk.Now().Sub(start), cpu: processCPU() - cpu0}
	for _, p := range parts {
		res.ops += p.ops
		res.failed += p.failed
		res.fresh = append(res.fresh, p.fresh...)
	}
	return res
}

// openResult is one open-loop phase: slots fall due on a fixed schedule
// whether or not earlier ones have been answered. Latency runs from the
// time a slot was due, so a stall is charged to every slot that fell due
// during it; how late the sender actually ran is reported beside it.
type openResult struct {
	attempted int
	failed    int
	lat       []time.Duration // due time to completion, correct ops only
	late      []time.Duration // due time to actual send, every slot
	endLate   time.Duration   // median lateness over each caller's last quarter of slots, the larger
}

// open offers rate slots per second, split evenly over the callers, for d.
func (g *generator) open(d time.Duration, rate float64) openResult {
	perCaller := int(rate / callers * d.Seconds())
	interval := time.Duration(float64(time.Second) * callers / rate)
	parts := make([]openResult, callers)
	start := g.clk.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Callers interleave: the second starts half an interval in.
			first := start.Add(time.Duration(c) * interval / callers)
			parts[c] = openCaller(g.clk, first, interval, perCaller, d, func() outcome { return g.one(c) })
		}(c)
	}
	wg.Wait()
	var res openResult
	for _, p := range parts {
		res.attempted += p.attempted
		res.failed += p.failed
		res.lat = append(res.lat, p.lat...)
		res.late = append(res.late, p.late...)
		if p.endLate > res.endLate {
			res.endLate = p.endLate
		}
	}
	return res
}

// openCaller sends n slots, slot k due at first + k*interval, over one
// connection. A slot that has not been sent two phase lengths after the
// phase began is refused and counts as failed.
func openCaller(clk clock, first time.Time, interval time.Duration, n int, phase time.Duration, do func() outcome) openResult {
	res := openResult{lat: make([]time.Duration, 0, n), late: make([]time.Duration, 0, n)}
	giveUp := first.Add(2 * phase)
	for k := 0; k < n; k++ {
		due := first.Add(time.Duration(k) * interval)
		now := clk.Now()
		if wait := due.Sub(now); wait > 0 {
			clk.Sleep(wait)
			now = clk.Now()
		}
		if now.After(giveUp) {
			res.attempted += n - k
			res.failed += n - k
			break
		}
		res.late = append(res.late, now.Sub(due))
		out := do()
		if out.uncounted && out.ok {
			continue
		}
		res.attempted++
		if !out.ok {
			res.failed++
			continue
		}
		res.lat = append(res.lat, clk.Now().Sub(due))
	}
	// A stall near the end makes the last slots late; a backlog that is
	// still growing makes the whole last quarter late.
	res.endLate = medianDuration(res.late[len(res.late)*3/4:])
	return res
}

// processCPU is the user plus system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
