package main

import (
	"math"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The calibration kernel.
//
// The box this benchmark runs on is a two-CPU virtual machine whose
// speed moves by a third over tens of minutes (same binary, same seed:
// portal-steady at 26 000 ops/s one hour and 35 500 the next, CPU time
// per op 70 us and 51 us, the single-threaded reference swarm 135 ms and
// 95 ms — every median scales by the same 0.7). No metric taken as
// wall-clock or CPU time can repeat across that. So each run times a
// fixed piece of work beside every window — the kernel below, on both
// CPUs at once — and states its medians at the speed of the reference
// box: a time is multiplied by speed = nominal kernel time / kernel time
// now, a rate divided by it. The values as measured and the speed are
// reported beside them. p99_us alone stays as measured: the tail here is
// set by collector cycles and scheduling hiccups, and does not follow
// the box's speed (measured: 2.9 ms in a slow hour, 2.7 ms in a fast
// one, medians 0.73 apart).
//
// The kernel uses the standard library only, on its own data, so that no
// change to this repository can move it.

// calibNominal is what each part of the kernel takes on the reference
// box (this box in its slower hours), frozen like the values in
// frozen.go.
var calibNominal = calibration{700 * time.Microsecond, 480 * time.Microsecond, 1500 * time.Microsecond}

// calibReps is how many times each CPU runs the kernel per calibration;
// the median repetition counts.
const calibReps = 7

// calibParts is how many separately timed parts the kernel has.
const calibParts = 3

type calibData struct {
	floats []float64
	ints   []int
	chain  []uint32        // one cycle through 16 MB
	at     [callers]uint32 // where each CPU stands in the chain
	sums   [callers]uint64 // keeps the kernel's results alive
}

func newCalibData() *calibData {
	d := &calibData{
		floats: make([]float64, 5000),
		ints:   make([]int, 6000),
		chain:  make([]uint32, 4<<20),
	}
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range d.floats {
		d.floats[i] = float64(next()%1_000_000_000) / 997
	}
	for i := range d.ints {
		d.ints[i] = int(next() % 1_000_003)
	}
	// Sattolo's shuffle: a single cycle, so a walk never falls into a
	// short loop that fits a cache.
	for i := range d.chain {
		d.chain[i] = uint32(i)
	}
	for i := len(d.chain) - 1; i > 0; i-- {
		j := int(next() % uint64(i))
		d.chain[i], d.chain[j] = d.chain[j], d.chain[i]
	}
	d.at[1] = uint32(len(d.chain) / 2)
	return d
}

// kernel runs the fixed work once on behalf of CPU c and returns how
// long each part took: formatting floats, sorting integers, and a
// dependent walk through memory no cache holds. None of
// them allocates, so the collector's cycles do not modulate them.
func (d *calibData) kernel(c int, text []byte, work []int) calibration {
	var took calibration
	sum := d.sums[c]
	t0 := time.Now()
	for _, f := range d.floats {
		text = strconv.AppendFloat(text[:0], f, 'g', -1, 64)
		sum += uint64(len(text)) + uint64(text[len(text)-1])
	}
	t1 := time.Now()
	copy(work, d.ints)
	sort.Ints(work)
	sum += uint64(work[len(work)/2])
	t2 := time.Now()
	p := d.at[c]
	for i := 0; i < 10000; i++ {
		p = d.chain[p]
	}
	d.at[c] = p
	t3 := time.Now()
	d.sums[c] = sum + uint64(p)
	took[0], took[1], took[2] = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	return took
}

// calibrate runs the kernel calibReps times on each of the two CPUs at
// once and returns, per part, the mean over the CPUs of the median
// repetition.
func (d *calibData) calibrate() calibration {
	var med [callers][calibParts]time.Duration
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			text := make([]byte, 0, 64)
			work := make([]int, len(d.ints))
			var reps [calibParts][]time.Duration
			for r := 0; r < calibReps; r++ {
				took := d.kernel(c, text, work)
				for k, v := range took {
					reps[k] = append(reps[k], v)
				}
			}
			for k := range reps {
				med[c][k] = medianDuration(reps[k])
			}
		}(c)
	}
	wg.Wait()
	var out calibration
	for k := range out {
		for c := range med {
			out[k] += med[c][k]
		}
		out[k] /= callers
	}
	return out
}

// calibration is one timing of the kernel, part by part.
type calibration [calibParts]time.Duration

// speedOf turns kernel times taken around an interval into the box's
// speed over it, relative to the reference box: 1 there, below 1 when
// the box is slower. The parts weigh equally (a geometric mean), so that
// the longest of them does not decide alone.
func speedOf(around ...calibration) float64 {
	logSum := 0.0
	for _, a := range around {
		for k, v := range a {
			logSum += math.Log(float64(calibNominal[k]) / float64(v))
		}
	}
	return math.Exp(logSum / float64(len(around)*calibParts))
}
