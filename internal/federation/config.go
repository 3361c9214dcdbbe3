package federation

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"p4p/internal/topology"
)

// ParseCircuits parses the flag form of circuits, one per flag,
//
//	shardA:pidA,shardB:pidB,cost
//
// e.g. "east:3,west:7,2.5", and checks them against the shard names
// with checkCircuits. The PID is everything after the endpoint's last
// colon, so shard names may themselves contain colons (ports in a
// URL-derived name); they may not contain commas.
func ParseCircuits(flags, shards []string) ([]Circuit, error) {
	circuits := make([]Circuit, len(flags))
	for i, s := range flags {
		var err error
		if circuits[i], err = parseCircuit(s); err != nil {
			return nil, err
		}
	}
	return circuits, checkCircuits(shards, circuits)
}

func parseCircuit(s string) (Circuit, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return Circuit{}, fmt.Errorf("federation: circuit %q: want shardA:pidA,shardB:pidB,cost", s)
	}
	a, apid, err := parseEndpoint(parts[0])
	if err != nil {
		return Circuit{}, fmt.Errorf("federation: circuit %q: %v", s, err)
	}
	b, bpid, err := parseEndpoint(parts[1])
	if err != nil {
		return Circuit{}, fmt.Errorf("federation: circuit %q: %v", s, err)
	}
	cost, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
	if err != nil {
		return Circuit{}, fmt.Errorf("federation: circuit %q: bad cost %q", s, parts[2])
	}
	return Circuit{A: a, APID: apid, B: b, BPID: bpid, Cost: cost}, nil
}

// checkCircuits rejects a circuit that names a shard not in shards, or
// whose cost is negative or NaN. Merge would skip the first on every
// pass, as if its shard were down, and fail every merge on the second;
// both are configuration errors, reported at startup.
func checkCircuits(shards []string, circuits []Circuit) error {
	for _, c := range circuits {
		if !slices.Contains(shards, c.A) || !slices.Contains(shards, c.B) {
			return fmt.Errorf("federation: circuit %s:%d-%s:%d references an unknown shard", c.A, c.APID, c.B, c.BPID)
		}
		if c.Cost < 0 || math.IsNaN(c.Cost) {
			return fmt.Errorf("federation: circuit %s:%d-%s:%d has invalid cost %v", c.A, c.APID, c.B, c.BPID, c.Cost)
		}
	}
	return nil
}

func parseEndpoint(s string) (shard string, pid topology.PID, err error) {
	s = strings.TrimSpace(s)
	i := strings.LastIndexByte(s, ':')
	if i <= 0 {
		return "", 0, fmt.Errorf("endpoint %q: want shard:pid", s)
	}
	n, err := strconv.Atoi(s[i+1:])
	if err != nil || n < 0 {
		return "", 0, fmt.Errorf("endpoint %q: bad PID %q", s, s[i+1:])
	}
	return s[:i], topology.PID(n), nil
}
