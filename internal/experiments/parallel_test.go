package experiments

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// renderReport serializes everything a Report carries — notes, table
// rows, sorted values, and series — via WriteTo, so two reports can be
// compared byte-for-byte.
func renderReport(t *testing.T, rep *Report) string {
	t.Helper()
	var b strings.Builder
	if _, err := rep.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// runID regenerates the experiment with the given ID.
func runID(t *testing.T, id string, opt Options) *Report {
	t.Helper()
	e, ok := Lookup(id)
	if !ok {
		t.Fatalf("no experiment %q", id)
	}
	return e.Run(opt)
}

// TestParallelReportsMatchSerial is the harness's determinism contract:
// every cell derives its own seed and owns its RNGs, so fanning cells
// across the worker pool must produce reports byte-identical to
// Parallelism: 1 — same Values, same Series, same table rows. Run under
// `go test -race ./...` (the tier-1 gate) this also race-checks the
// parallel sweeps.
func TestParallelReportsMatchSerial(t *testing.T) {
	cases := []struct {
		name  string
		scale float64
	}{
		{"F6", 0.2},
		{"F7", 0.02},
		{"F8", 0.02},
		{"F9", 0.3},
		{"F10", 0.2},
		{"A2", 0.2},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			serial := runID(t, tc.name, Options{Scale: tc.scale, Seed: 42, Parallelism: 1})
			parallel := runID(t, tc.name, Options{Scale: tc.scale, Seed: 42, Parallelism: 4})
			got, want := renderReport(t, parallel), renderReport(t, serial)
			if got != want {
				t.Fatalf("parallel report differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
			}
		})
	}
}

// TestForEachCellRunsEveryCellOnce checks the pool's scheduling
// contract at several parallelism settings, including more workers
// than cells and the GOMAXPROCS default.
func TestForEachCellRunsEveryCellOnce(t *testing.T) {
	for _, par := range []int{0, 1, 3, 16} {
		const n = 23
		counts := make([]int32, n)
		Options{Parallelism: par}.forEachCell(n, func(i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("parallelism %d: cell %d ran %d times", par, i, c)
			}
		}
	}
}

// TestForEachCellPropagatesPanic: a panicking cell must surface on the
// caller's goroutine, like a serial run would, not crash the process.
func TestForEachCellPropagatesPanic(t *testing.T) {
	for _, par := range []int{1, 4} {
		func() {
			defer func() {
				if r := recover(); r != "cell boom" {
					t.Fatalf("parallelism %d: recovered %v, want cell panic", par, r)
				}
			}()
			Options{Parallelism: par}.forEachCell(8, func(i int) {
				if i == 5 {
					panic("cell boom")
				}
			})
		}()
	}
}

// TestForEachCellBoundsWorkers verifies the pool never runs more cells
// concurrently than the configured parallelism.
func TestForEachCellBoundsWorkers(t *testing.T) {
	const par = 2
	var mu sync.Mutex
	active, peak := 0, 0
	Options{Parallelism: par}.forEachCell(12, func(i int) {
		mu.Lock()
		active++
		if active > peak {
			peak = active
		}
		mu.Unlock()
		mu.Lock()
		active--
		mu.Unlock()
	})
	if peak > par {
		t.Fatalf("observed %d concurrent cells, want <= %d", peak, par)
	}
}
