package experiments

import (
	"testing"

	"p4p/internal/topology"
)

// TestSwarmFingerprintGolden runs P4P swarms with the iTracker in the
// loop and compares each p2psim.Result.Fingerprint — completions, mean
// completion time, total bytes and a hash of the per-link byte counts —
// against a recorded constant. Any change to the engine, the iTracker
// view path, P4P.Select or the simulator that moves one bit of one price
// moves it; a change meant to alter behaviour re-records it and says so.
//
//   - mlu-300: one 300-leecher swarm on Abilene with the MLU iTracker
//     (the swarm bench/'s swarm-p4p runs, at its warm-up size), recorded
//     at the commit before core.Engine's kernels were rebuilt.
//   - F6 and F10: the figures' P4P cells at paper size, recorded while
//     Figure 6's iTracker was a view provider of its own. The F6 row is
//     the one that sees that arm's prices: the scale-0.02 golden reports
//     run it with 3 clients.
//   - F7, P4P and native: Figure 7's 256 MB file, 1,024 pieces, so
//     multi-word piece bitsets and long rarest-first tie runs, recorded
//     before the availability counts shrank to the pieces a client lacks
//     and the tie draw stopped dividing.
func TestSwarmFingerprintGolden(t *testing.T) {
	figureN := func(fig, policy string, n int) Cell {
		c, err := FigureCell(fig, policy, n, 42)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	figure := func(fig string) Cell { return figureN(fig, policyP4P, 160) }
	g := topology.Abilene()
	for _, tc := range []struct {
		name string
		cell Cell
		want string
	}{
		{"mlu-300", intradomainCell(policyP4P, g, topology.ComputeRouting(g), 300, 16<<20, 1e9, 1, 1.0),
			"300/300 mean=401d9f4df5310979 bytes=41f2c00000000000 links=a6b5446198269e01"},
		{"F6", figure("F6"), "160/160 mean=404d6b382cd48136 bytes=41ddfffffffffff3 links=b457bdba6b740609"},
		{"F10", figure("F10"), "160/160 mean=403b26965fa6d8e5 bytes=41ddfffffffffffa links=c9e484c6bc05f74b"},
		{"F7-p4p", figureN("F7", policyP4P, 40), "40/40 mean=40404ebcbcd0a558 bytes=4204000000000000 links=2a4daf8c1a876673"},
		{"F7-native", figureN("F7", policyNative, 40), "40/40 mean=40404f98790dd2d7 bytes=4204000000000000 links=5adf5fab3d22ab46"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.cell.Run().Fingerprint(); got != tc.want {
				t.Fatalf("swarm fingerprint moved:\n got %s\nwant %s", got, tc.want)
			}
		})
	}
}
