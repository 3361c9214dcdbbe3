#!/bin/sh
# Run a benchmark suite and emit the results as JSON in the repo root,
# so runs can be diffed across commits (scripts/bench_diff.sh). Stdlib
# tooling only: go test -bench output parsed with awk.
#
# Usage: bench_json.sh [portal|sim]
#
#   portal (default)  portal request path (JSON and binary), 304
#                     revalidation, view recompute, the view codec at
#                     ISP-B size in both encodings, one portal.Client
#                     poll over loopback (200 and 304), the engine's
#                     two kernels (core.Engine Update and Matrix, ISP-B
#                     and Abilene), the decode of one select-fed
#                     /select body, by Node's UnmarshalJSON and by the
#                     reflective struct decode, and one federation
#                     router refresh over two loopback shards (shards
#                     unchanged and one changed) followed by a binary
#                     and a raw request -> BENCH_portal.json
#   sim               p2psim hot-path benchmarks, P4P.Select at 200 /
#                     1k / 10k candidates and at a swarm's shape
#                     (swarm1k), plus the Figure 7 swarm-size sweep,
#                     parallel and serial
#                     -> BENCH_sim.json
#
# Each micro-benchmark runs five times (-count 5) and its row holds the
# median of each field, so one noisy run does not move bench_diff.sh's
# gates; the Figure 7 sweep runs once. BENCHTIME overrides the
# micro-benchmark -benchtime (default 1s); P4P_SCALE the sweep workload
# scale (default 0.25). The header stamps the machine: goos/goarch/cpu
# from go test, go_version, gomaxprocs (the -N suffix go test prints)
# and the commit (with -dirty when the tree has uncommitted changes).
set -eu
cd "$(dirname "$0")/.."

MODE=${1:-portal}
case "$MODE" in
portal)
	OUT=BENCH_portal.json
	RAW=$(
		go test -run '^$' -bench 'BenchmarkPortal|BenchmarkViewRecompute|BenchmarkViewCodec|BenchmarkClientDistances' \
			-benchmem -count 5 -benchtime "${BENCHTIME:-1s}" ./internal/portal/
		go test -run '^$' -bench 'BenchmarkEngine' \
			-benchmem -count 5 -benchtime "${BENCHTIME:-1s}" ./internal/core/
		go test -run '^$' -bench 'BenchmarkSelectRequestDecode' \
			-benchmem -count 5 -benchtime "${BENCHTIME:-1s}" ./internal/apptracker/
		go test -run '^$' -bench 'BenchmarkRouterRefresh' \
			-benchmem -count 5 -benchtime "${BENCHTIME:-1s}" ./internal/federation/
	)
	;;
sim)
	OUT=BENCH_sim.json
	# The sweep is a macro-benchmark: one iteration, fixed scale. Its
	# Serial variant pins Parallelism to 1; Serial ns/op divided by the
	# parallel ns/op is the harness's speedup on this host.
	RAW=$(
		go test -run '^$' -bench 'BenchmarkSim' \
			-benchmem -count 5 -benchtime "${BENCHTIME:-1s}" ./internal/p2psim/
		go test -run '^$' -bench 'BenchmarkP4PSelect' \
			-benchmem -count 5 -benchtime "${BENCHTIME:-1s}" ./internal/apptracker/
		go test -run '^$' -bench 'BenchmarkFigure7SwarmSize(Serial)?$' \
			-benchmem -benchtime 1x -p4p.scale "${P4P_SCALE:-0.25}" .
	)
	;;
*)
	echo "usage: $0 [portal|sim]" >&2
	exit 2
	;;
esac

printf '%s\n' "$RAW"
COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
[ -z "$(git status --porcelain 2>/dev/null)" ] || COMMIT="$COMMIT-dirty"
printf '%s\n' "$RAW" | awk -v go_version="$(go env GOVERSION)" -v commit="$COMMIT" '
# median sorts the k values of vals[name, 0..k-1] and returns the middle
# one (the mean of the two middle ones when k is even).
function median(vals, name, k,    i, j, v, s) {
    for (i = 0; i < k; i++) {
        v = vals[name, i] + 0
        for (j = i; j > 0 && s[j-1] > v; j--) s[j] = s[j-1]
        s[j] = v
    }
    return k % 2 ? s[int(k/2)] : (s[k/2-1] + s[k/2]) / 2
}
BEGIN { n = 0; procs = 1 }
/^goos:/   { goos = $2 }
/^goarch:/ { goarch = $2 }
/^cpu:/    { sub(/^cpu: */, ""); cpu = $0 }
/^Benchmark/ {
    # BenchmarkName-8  123456  987 ns/op  64 B/op  2 allocs/op [extras]
    # Token-scan for the unit suffixes: experiment benchmarks append
    # ReportMetric extras, so fixed field positions would misparse.
    name = $1
    if (match(name, /-[0-9]+$/)) { procs = substr(name, RSTART + 1); name = substr(name, 1, RSTART - 1) }
    ns = ""; b = 0; a = 0
    for (i = 3; i < NF; i++) {
        u = $(i+1)
        if (u == "ns/op")          ns = $i
        else if (u == "B/op")      b  = $i
        else if (u == "allocs/op") a  = $i
    }
    if (ns == "") next
    if (!(name in runs)) bench[n++] = name
    k = runs[name]++
    iters[name, k] = $2; nsop[name, k] = ns; bop[name, k] = b; allocs[name, k] = a
}
END {
    printf "{\n"
    printf "  \"goos\": \"%s\",\n", goos
    printf "  \"goarch\": \"%s\",\n", goarch
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"go_version\": \"%s\",\n", go_version
    printf "  \"gomaxprocs\": %s,\n", procs
    printf "  \"commit\": \"%s\",\n", commit
    printf "  \"benchmarks\": [\n"
    for (i = 0; i < n; i++) {
        name = bench[i]; k = runs[name]
        printf "    {\"name\": \"%s\", \"iterations\": %.0f, \"ns_per_op\": %.12g, \"bytes_per_op\": %.0f, \"allocs_per_op\": %.0f}%s\n", \
            name, median(iters, name, k), median(nsop, name, k), median(bop, name, k), median(allocs, name, k), (i < n-1 ? "," : "")
    }
    printf "  ]\n"
    printf "}\n"
}' >"$OUT"

echo ">> wrote $OUT"
