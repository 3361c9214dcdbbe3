package traffic

import (
	"math"
	"testing"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig(1e9)
	a := Generate(cfg, 288)
	b := Generate(cfg, 288)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at interval %d", i)
		}
	}
}

func TestGenerateLengthAndPositivity(t *testing.T) {
	cfg := DefaultConfig(1e9)
	s := Generate(cfg, 1000)
	if len(s) != 1000 {
		t.Fatalf("len = %d, want 1000", len(s))
	}
	for i, v := range s {
		if v < 0 {
			t.Fatalf("negative volume at %d: %v", i, v)
		}
	}
}

func TestPeakToTroughRatio(t *testing.T) {
	cfg := DefaultConfig(1e9)
	cfg.NoiseFrac = 0
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < 288; i++ {
		r := RateAt(cfg, float64(i)*cfg.IntervalSec)
		lo = math.Min(lo, r)
		hi = math.Max(hi, r)
	}
	ratio := hi / lo
	if math.Abs(ratio-cfg.PeakToTrough) > 0.05 {
		t.Fatalf("peak/trough = %v, want ~%v", ratio, cfg.PeakToTrough)
	}
}

func TestPeakAtConfiguredHour(t *testing.T) {
	cfg := DefaultConfig(1e9)
	cfg.NoiseFrac = 0
	atPeak := RateAt(cfg, cfg.PeakHour*3600)
	// A 3:1 swing around a 1 Gbps mean peaks at mean*(1+a), a = (3-1)/(3+1).
	if want := 1.5e9; math.Abs(atPeak-want) > 1e-6*atPeak {
		t.Fatalf("rate at peak hour %v != daily maximum %v", atPeak, want)
	}
	offPeak := RateAt(cfg, math.Mod(cfg.PeakHour+12, 24)*3600)
	if offPeak >= atPeak {
		t.Fatal("rate 12h off peak should be lower than peak")
	}
}

func TestMeanApproximatesConfig(t *testing.T) {
	cfg := DefaultConfig(2e9)
	cfg.NoiseFrac = 0
	s := Generate(cfg, 288) // exactly one day
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	meanRate := sum * 8 / (288 * cfg.IntervalSec)
	if math.Abs(meanRate-cfg.MeanBps) > 0.02*cfg.MeanBps {
		t.Fatalf("mean rate = %v, want ~%v", meanRate, cfg.MeanBps)
	}
}

func TestGeneratePanics(t *testing.T) {
	for _, cfg := range []DiurnalConfig{
		{IntervalSec: 0, MeanBps: 1, PeakToTrough: 2},
		{IntervalSec: 300, MeanBps: 1, PeakToTrough: 0.5},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			Generate(cfg, 10)
		}()
	}
}
