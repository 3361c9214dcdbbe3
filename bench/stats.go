package main

import (
	"math"
	"sort"
	"time"
)

// summary is how every reported value is stated: the median across
// trials with its quartiles and the number of trials behind it.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize returns the median and quartiles of xs. Quartiles follow
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), the
// rule the acceptance driver applies to the values this program prints,
// so a spread computed here reads the same there.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return summary{Median: s[0], Q1: s[0], Q3: s[0], N: 1}
	}
	return summary{Median: exclusiveQuantile(s, 2), Q1: exclusiveQuantile(s, 1), Q3: exclusiveQuantile(s, 3), N: len(s)}
}

// exclusiveQuantile is the i-th of the three quartile cut points of a
// sorted sample of at least two values.
func exclusiveQuantile(sorted []float64, i int) float64 {
	const n = 4
	ld := len(sorted)
	j := i * (ld + 1) / n
	if j < 1 {
		j = 1
	}
	if j > ld-1 {
		j = ld - 1
	}
	delta := i*(ld+1) - j*n
	return (sorted[j-1]*float64(n-delta) + sorted[j]*float64(delta)) / n
}

// spread is the interquartile distance as a share of the median, the
// steadiness figure the acceptance driver bounds.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of a
// sorted sample: the smallest value with at least q of the sample at or
// below it.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
