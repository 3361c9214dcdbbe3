//go:build race

package core

// raceEnabled reports whether the race detector is compiled in; the
// LP-oracle test runs fewer seeds under -race, which slows its LPs about
// twentyfold.
const raceEnabled = true
