package experiments

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"p4p/internal/topology"
)

// TestSwarmFingerprintGolden runs one 300-leecher P4P swarm on Abilene
// with the MLU iTracker in the loop (the swarm bench/'s swarm-p4p runs,
// at its warm-up size) and compares what must repeat exactly for a
// seed — completions, mean completion time, total bytes and a hash of
// the per-link byte counts — against constants recorded at the commit
// before core.Engine's kernels were rebuilt (PR 22). Any change to the
// engine, the iTracker view path, P4P.Select or the simulator that
// moves one bit of one price moves these; a PR that means to change
// behaviour re-records them and says so.
func TestSwarmFingerprintGolden(t *testing.T) {
	const want = "300/300 mean=401d9f4df5310979 bytes=41f2c00000000000 links=a6b5446198269e01"
	g := topology.Abilene()
	run := runIntradomainSwarm(policyP4P, g, topology.ComputeRouting(g), 300, 16<<20, 1e9, 1, nil, 1.0)
	res := run.result
	h := fnv.New64a()
	for _, v := range res.LinkBytes {
		bits := math.Float64bits(v)
		var b [8]byte
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	got := fmt.Sprintf("%d/300 mean=%x bytes=%x links=%x", len(res.CompletionTimes()),
		math.Float64bits(res.MeanCompletionTime()), math.Float64bits(res.TotalBytes), h.Sum64())
	if got != want {
		t.Fatalf("swarm fingerprint moved:\n got %s\nwant %s", got, want)
	}
}
