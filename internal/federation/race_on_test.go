//go:build race

package federation

// raceEnabled reports whether the race detector is compiled in; the
// allocation-count assertion skips under -race because instrumentation
// inflates per-op allocations.
const raceEnabled = true
