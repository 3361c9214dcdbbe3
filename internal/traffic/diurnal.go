// Package traffic generates synthetic background-traffic series with
// diurnal structure. The paper drives its interdomain experiments from
// December 2007 Abilene NOC traffic traces and uses per-link background
// volumes b_e in its traffic-engineering objectives; those traces are not
// available, so this package produces deterministic series with the same
// gross statistics (daily peak/trough cycle plus noise) to exercise the
// same estimation and optimization code paths.
package traffic

import (
	"math"
	"math/rand"
)

// DiurnalConfig parameterizes a synthetic diurnal traffic series.
type DiurnalConfig struct {
	// IntervalSec is the sampling interval; percentile billing uses 300 s
	// (5 minutes).
	IntervalSec float64
	// MeanBps is the average offered traffic rate over a full day.
	MeanBps float64
	// PeakToTrough is the ratio of the daily maximum rate to the daily
	// minimum rate; must be >= 1.
	PeakToTrough float64
	// PeakHour is the local hour-of-day [0, 24) at which traffic peaks.
	PeakHour float64
	// NoiseFrac adds +-NoiseFrac relative uniform noise per interval.
	NoiseFrac float64
	// Seed makes the noise deterministic.
	Seed int64
}

// DefaultConfig is a typical backbone profile: 5-minute intervals, a 3:1
// daily swing peaking at 20:00, and 10% noise.
func DefaultConfig(meanBps float64) DiurnalConfig {
	return DiurnalConfig{
		IntervalSec:  300,
		MeanBps:      meanBps,
		PeakToTrough: 3,
		PeakHour:     20,
		NoiseFrac:    0.10,
		Seed:         1,
	}
}

// Generate produces `intervals` consecutive volumes in bytes per
// interval, starting at midnight of day zero.
func Generate(cfg DiurnalConfig, intervals int) []float64 {
	if cfg.IntervalSec <= 0 {
		panic("traffic: IntervalSec must be positive")
	}
	if cfg.PeakToTrough < 1 {
		panic("traffic: PeakToTrough must be >= 1")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := make([]float64, intervals)
	for i := range out {
		tSec := float64(i) * cfg.IntervalSec
		rate := RateAt(cfg, tSec)
		if cfg.NoiseFrac > 0 {
			rate *= 1 + cfg.NoiseFrac*(2*rng.Float64()-1)
		}
		if rate < 0 {
			rate = 0
		}
		out[i] = rate * cfg.IntervalSec / 8 // bits/sec over interval -> bytes
	}
	return out
}

// RateAt returns the noiseless instantaneous rate (bits per second) at
// time tSec since midnight of day zero. The daily cycle is sinusoidal:
// rate(t) = mean * (1 + a*cos(2pi*(h - peak)/24)) with the amplitude a
// chosen so that max/min equals PeakToTrough.
func RateAt(cfg DiurnalConfig, tSec float64) float64 {
	r := cfg.PeakToTrough
	a := (r - 1) / (r + 1)
	hour := math.Mod(tSec/3600, 24)
	return cfg.MeanBps * (1 + a*math.Cos(2*math.Pi*(hour-cfg.PeakHour)/24))
}
