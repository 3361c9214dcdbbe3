package federation

import (
	"math"
	"testing"

	"p4p/internal/core"
	"p4p/internal/topology"
)

// mkview builds a shard view literal for merge tests.
func mkview(version int, pids []topology.PID, d [][]float64) *core.View {
	return &core.View{PIDs: pids, D: d, Version: version}
}

func viewA() *core.View {
	return mkview(3, []topology.PID{0, 1}, [][]float64{{0, 2}, {2, 0}})
}

func viewB() *core.View {
	return mkview(5, []topology.PID{10, 11}, [][]float64{{0, 4}, {4, 0}})
}

func TestMergeSameShardCopiesThrough(t *testing.T) {
	v, err := Merge([]ShardView{{"a", viewA()}, {"b", viewB()}},
		[]Circuit{{A: "a", APID: 1, B: "b", BPID: 10, Cost: 7}})
	if err != nil {
		t.Fatal(err)
	}
	wantPIDs := []topology.PID{0, 1, 10, 11}
	if len(v.PIDs) != len(wantPIDs) {
		t.Fatalf("merged PIDs = %v, want %v", v.PIDs, wantPIDs)
	}
	for i, p := range wantPIDs {
		if v.PIDs[i] != p {
			t.Fatalf("merged PIDs = %v, want %v (ascending union)", v.PIDs, wantPIDs)
		}
	}
	if v.Version != 8 {
		t.Errorf("merged Version = %d, want 3+5=8", v.Version)
	}
	// Intradomain entries are the owning shard's, untouched.
	if got := v.Distance(0, 1); got != 2 {
		t.Errorf("intra-shard d(0,1) = %v, want 2", got)
	}
	if got := v.Distance(11, 10); got != 4 {
		t.Errorf("intra-shard d(11,10) = %v, want 4", got)
	}
}

func TestMergeComposesCrossShardViaGateways(t *testing.T) {
	v, err := Merge([]ShardView{{"a", viewA()}, {"b", viewB()}},
		[]Circuit{{A: "a", APID: 1, B: "b", BPID: 10, Cost: 7}})
	if err != nil {
		t.Fatal(err)
	}
	// src→gateway + circuit + gateway'→dst, both directions.
	cases := []struct {
		src, dst topology.PID
		want     float64
	}{
		{0, 10, 2 + 7 + 0},
		{0, 11, 2 + 7 + 4},
		{1, 10, 0 + 7 + 0},
		{10, 0, 0 + 7 + 2},
		{11, 1, 4 + 7 + 0},
	}
	for _, c := range cases {
		if got := v.Distance(c.src, c.dst); got != c.want {
			t.Errorf("d(%d,%d) = %v, want %v", c.src, c.dst, got, c.want)
		}
	}
}

func TestMergeMultihomingTakesCheapestCircuit(t *testing.T) {
	// Second parallel circuit a:0-b:11 at cost 1: every cross pair must
	// take whichever gateway path is cheaper — the Figure 10 multihoming
	// behavior, generalized.
	v, err := Merge([]ShardView{{"a", viewA()}, {"b", viewB()}},
		[]Circuit{
			{A: "a", APID: 1, B: "b", BPID: 10, Cost: 7},
			{A: "a", APID: 0, B: "b", BPID: 11, Cost: 1},
		})
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Distance(0, 11); got != 1 {
		t.Errorf("d(0,11) = %v, want 1 (direct cheap circuit)", got)
	}
	if got := v.Distance(0, 10); got != 5 {
		t.Errorf("d(0,10) = %v, want 5 (cheap circuit + b intradomain)", got)
	}
	// 1→11 can hairpin inside a to the cheap gateway: 2 + 1 + 0 = 3,
	// beating the direct 7+4 = 11.
	if got := v.Distance(1, 11); got != 3 {
		t.Errorf("d(1,11) = %v, want 3 (hairpin to cheaper gateway)", got)
	}
}

func TestMergeTransitsIntermediateShard(t *testing.T) {
	viewC := mkview(1, []topology.PID{20, 21}, [][]float64{{0, 4}, {4, 0}})
	v, err := Merge(
		[]ShardView{{"a", viewA()}, {"b", viewB()}, {"c", viewC}},
		[]Circuit{
			{A: "a", APID: 1, B: "b", BPID: 10, Cost: 1},
			{A: "b", APID: 11, B: "c", BPID: 20, Cost: 1},
		})
	if err != nil {
		t.Fatal(err)
	}
	// a→c has no direct circuit: compose through b's intradomain
	// gateway-to-gateway distance. 0→1 (2) + circuit (1) + 10→11 in b
	// (4) + circuit (1) + 20→21 in c (4) = 12.
	if got := v.Distance(0, 21); got != 12 {
		t.Errorf("d(0,21) = %v, want 12 (transit through shard b)", got)
	}
}

func TestMergeDownShardDropsItsCircuits(t *testing.T) {
	viewC := mkview(1, []topology.PID{20, 21}, [][]float64{{0, 4}, {4, 0}})
	// Shard b is down (absent from the shard list): its circuits are
	// skipped, a and c keep serving, and a↔c is unreachable.
	v, err := Merge(
		[]ShardView{{"a", viewA()}, {"c", viewC}},
		[]Circuit{
			{A: "a", APID: 1, B: "b", BPID: 10, Cost: 1},
			{A: "b", APID: 11, B: "c", BPID: 20, Cost: 1},
		})
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Distance(0, 1); got != 2 {
		t.Errorf("intra-shard d(0,1) = %v, want 2", got)
	}
	if got := v.Distance(0, 20); !math.IsInf(got, 1) {
		t.Errorf("d(0,20) = %v, want +Inf with shard b down", got)
	}
	// A nil view behaves like an absent shard.
	v2, err := Merge(
		[]ShardView{{"a", viewA()}, {"b", nil}, {"c", viewC}},
		[]Circuit{{A: "a", APID: 1, B: "b", BPID: 10, Cost: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := v2.Distance(0, 20); !math.IsInf(got, 1) {
		t.Errorf("d(0,20) = %v, want +Inf with nil shard view", got)
	}
}

func TestMergeSkipsCircuitWithUnknownGatewayPID(t *testing.T) {
	// Gateway PID 9 is not in shard a's view: the circuit cannot carry
	// traffic and is skipped rather than panicking in composition.
	v, err := Merge([]ShardView{{"a", viewA()}, {"b", viewB()}},
		[]Circuit{{A: "a", APID: 9, B: "b", BPID: 10, Cost: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Distance(0, 10); !math.IsInf(got, 1) {
		t.Errorf("d(0,10) = %v, want +Inf (only circuit unusable)", got)
	}
}

func TestMergeDuplicatePIDFails(t *testing.T) {
	dup := mkview(1, []topology.PID{1, 10}, [][]float64{{0, 1}, {1, 0}})
	if _, err := Merge([]ShardView{{"a", viewA()}, {"b", dup}}, nil); err == nil {
		t.Fatal("want error for PID served by two shards")
	}
}

func TestMergeRejectsInvalidCircuitCost(t *testing.T) {
	for _, cost := range []float64{-1, math.NaN()} {
		if _, err := Merge([]ShardView{{"a", viewA()}, {"b", viewB()}},
			[]Circuit{{A: "a", APID: 1, B: "b", BPID: 10, Cost: cost}}); err == nil {
			t.Errorf("want error for circuit cost %v", cost)
		}
	}
}

func TestMergeNoCircuitsCrossShardUnreachable(t *testing.T) {
	v, err := Merge([]ShardView{{"a", viewA()}, {"b", viewB()}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Distance(1, 10); !math.IsInf(got, 1) {
		t.Errorf("d(1,10) = %v, want +Inf with no circuits", got)
	}
}

func TestParseCircuit(t *testing.T) {
	shards := []string{"east", "west", "http://e:8080", "http://w:9090/", "a", "b"}
	c, err := ParseCircuits([]string{"east:3,west:7,2.5"}, shards)
	if err != nil {
		t.Fatal(err)
	}
	want := Circuit{A: "east", APID: 3, B: "west", BPID: 7, Cost: 2.5}
	if c[0] != want {
		t.Errorf("ParseCircuits = %+v, want %+v", c[0], want)
	}
	// Shard names may contain colons (URL-derived): the PID is after
	// the last one.
	c, err = ParseCircuits([]string{"http://e:8080:4,http://w:9090/:7,1"}, shards)
	if err != nil {
		t.Fatal(err)
	}
	if c[0].A != "http://e:8080" || c[0].APID != 4 || c[0].B != "http://w:9090/" || c[0].BPID != 7 {
		t.Errorf("URL-named circuit parsed as %+v", c[0])
	}
	// A NaN cost failed every merge, and a circuit naming no shard was
	// skipped by every merge, as if its shard were down: both are
	// refused here, at startup.
	for _, bad := range []string{"", "a:1,b:2", "a:1,b:2,x", "a:1,b:2,-1", "a:1,b:2,NaN", "a:1,c:2,1",
		"http://e:8080:4,http://w:9090:7,1", "a,b:2,1", "a:x,b:2,1"} {
		if _, err := ParseCircuits([]string{"a:1,b:2,1", bad}, shards); err == nil {
			t.Errorf("ParseCircuits(%q): want error", bad)
		}
	}
}
