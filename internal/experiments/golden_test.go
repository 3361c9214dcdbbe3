package experiments

import (
	"testing"

	"p4p/internal/topology"
)

// TestSwarmFingerprintGolden runs one 300-leecher P4P swarm on Abilene
// with the MLU iTracker in the loop (the swarm bench/'s swarm-p4p runs,
// at its warm-up size) and compares its p2psim.Result.Fingerprint —
// completions, mean completion time, total bytes and a hash of the
// per-link byte counts — against a constant recorded at the commit
// before core.Engine's kernels were rebuilt (PR 22). Any change to the
// engine, the iTracker view path, P4P.Select or the simulator that
// moves one bit of one price moves it; a change meant to alter
// behaviour re-records it and says so.
func TestSwarmFingerprintGolden(t *testing.T) {
	const want = "300/300 mean=401d9f4df5310979 bytes=41f2c00000000000 links=a6b5446198269e01"
	g := topology.Abilene()
	res := intradomainCell(policyP4P, g, topology.ComputeRouting(g), 300, 16<<20, 1e9, 1, 1.0).Run()
	if got := res.Fingerprint(); got != want {
		t.Fatalf("swarm fingerprint moved:\n got %s\nwant %s", got, want)
	}
}
