//go:build race

package p2psim

// raceEnabled reports whether the race detector is compiled in; the
// allocation-count assertions skip under -race because instrumentation
// inflates per-op allocations.
const raceEnabled = true
