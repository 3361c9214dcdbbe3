// Package charging implements the percentile-based usage charging model
// of the paper's Section 5 ("Interdomain Multihoming Cost Control") and
// the charging-volume prediction algorithm of Section 6.1.
//
// In the q-percentile model a provider records the traffic volume of
// every 5-minute interval; at the end of a charging period the volumes
// are sorted ascending and the customer is billed at the volume of the
// q-th percentile interval (the 8208th of 8640 for q=0.95 over a
// 30-day month). The iTracker predicts the current period's charging
// volume, predicts near-term background traffic with a moving average,
// and exposes the difference as the virtual capacity v_e available to
// P4P-controlled traffic on each interdomain link.
package charging

import (
	"fmt"
	"math"
	"sort"
)

// Percentile returns the q-quantile (0 < q <= 1) of v using the billing
// rule: sort ascending and take the element at index ceil(q*n)-1. It
// panics on empty input or out-of-range q.
func Percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		panic("charging: Percentile of empty slice")
	}
	if q <= 0 || q > 1 {
		panic(fmt.Sprintf("charging: quantile %v out of (0, 1]", q))
	}
	sorted := append([]float64(nil), v...)
	sort.Float64s(sorted)
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// Model describes one provider's billing scheme.
type Model struct {
	// Q is the billing percentile, e.g. 0.95.
	Q float64
	// PeriodIntervals is the number of 5-minute intervals per charging
	// period, e.g. 30*24*12 = 8640 for a 30-day month.
	PeriodIntervals int
}

// StandardMonthly is the 95th-percentile model over a 30-day month used
// throughout the paper (8208 = 95% x 30 x 24 x 60/5 sorted interval).
func StandardMonthly() Model {
	return Model{Q: 0.95, PeriodIntervals: 30 * 24 * 12}
}

// Predictor implements the paper's Section 6.1 hybrid sliding-window
// charging-volume prediction: a pure sliding window misestimates when
// the previous period's charging volume differs from the current one, so
// for the first M intervals of a period the predictor uses the last I
// samples (spilling into the previous period), and afterwards it uses
// only the samples of the current period.
type Predictor struct {
	Model Model
	// WarmupIntervals is M: how long into a period the cross-period
	// sliding window is used.
	WarmupIntervals int
}

// PredictChargingVolume predicts the charging volume for the next
// interval given the full history of interval volumes (oldest first).
// The next interval has index i = len(history); s = (i/I)*I is the first
// interval of its charging period. Following Section 6.1:
//
//	v~_i = qt(v[i-I : i], q)   for s <= i <= s+M  (sliding window)
//	v~_i = qt(v[s : i], q)     for s+M < i < s+I  (current period only)
//
// With insufficient history the available prefix is used.
func (p *Predictor) PredictChargingVolume(history []float64) float64 {
	i := len(history)
	if i == 0 {
		return 0
	}
	iPer := p.Model.PeriodIntervals
	s := (i / iPer) * iPer
	var window []float64
	if i <= s+p.WarmupIntervals {
		lo := i - iPer
		if lo < 0 {
			lo = 0
		}
		window = history[lo:i]
	} else {
		window = history[s:i]
	}
	return Percentile(window, p.Model.Q)
}

// MovingAverage predicts the next interval's traffic volume as the mean
// of the last Window samples (fewer if history is short). The window
// must be small relative to a day so diurnal structure is not lost
// (Section 6.1).
type MovingAverage struct {
	Window int
}

// Predict returns the moving-average forecast; 0 on empty history.
func (m MovingAverage) Predict(history []float64) float64 {
	if len(history) == 0 {
		return 0
	}
	w := m.Window
	if w <= 0 {
		w = 1
	}
	if w > len(history) {
		w = len(history)
	}
	sum := 0.0
	for _, v := range history[len(history)-w:] {
		sum += v
	}
	return sum / float64(w)
}

// VirtualCapacityEstimator produces v_e for an interdomain link: the
// headroom between the predicted charging volume and the predicted
// background traffic volume for the next interval. If background is
// predicted to exceed the charging volume, the virtual capacity is 0 —
// P4P traffic on the link would raise the bill.
type VirtualCapacityEstimator struct {
	Predictor Predictor
	Average   MovingAverage
}

// Estimate returns v_e in bytes per interval given the background
// volume history (oldest first).
func (e *VirtualCapacityEstimator) Estimate(history []float64) float64 {
	charge := e.Predictor.PredictChargingVolume(history)
	bg := e.Average.Predict(history)
	v := charge - bg
	if v < 0 {
		return 0
	}
	return v
}

// Ledger accumulates traffic volumes into fixed-size intervals, for use
// as the per-link volume record of an interdomain link.
type Ledger struct {
	IntervalSec float64
	volumes     []float64
}

// NewLedger returns a ledger with the given interval size (seconds).
func NewLedger(intervalSec float64) *Ledger {
	if intervalSec <= 0 {
		panic("charging: non-positive ledger interval")
	}
	return &Ledger{IntervalSec: intervalSec}
}

// Add records `bytes` of traffic at time tSec (seconds from epoch zero).
// Times may arrive in any order; the ledger grows as needed.
func (l *Ledger) Add(tSec, bytes float64) {
	if tSec < 0 {
		panic("charging: negative time")
	}
	l.addAt(int(tSec/l.IntervalSec), bytes)
}

// AddSpread records `bytes` of traffic spread uniformly over
// [startSec, endSec), splitting across interval boundaries.
func (l *Ledger) AddSpread(startSec, endSec, bytes float64) {
	if endSec <= startSec || startSec < 0 {
		l.Add(startSec, bytes) // a point, or Add's negative-time panic
		return
	}
	rate := bytes / (endSec - startSec)
	// The walk counts intervals as integers: a boundary recomputed from
	// t can round back onto t when IntervalSec is not an integer
	// (4.3/0.1 is 42.999…), and t would never advance.
	t := startSec
	for idx := int(startSec / l.IntervalSec); t < endSec; idx++ {
		segEnd := math.Min(float64(idx+1)*l.IntervalSec, endSec)
		l.addAt(idx, rate*(segEnd-t))
		t = segEnd
	}
}

func (l *Ledger) addAt(idx int, bytes float64) {
	for len(l.volumes) <= idx {
		l.volumes = append(l.volumes, 0)
	}
	l.volumes[idx] += bytes
}

// Volumes returns the recorded per-interval volumes (shared slice; do
// not modify).
func (l *Ledger) Volumes() []float64 { return l.volumes }

// Total returns the sum of all recorded volumes.
func (l *Ledger) Total() float64 {
	sum := 0.0
	for _, v := range l.volumes {
		sum += v
	}
	return sum
}
