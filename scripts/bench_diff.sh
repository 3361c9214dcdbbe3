#!/bin/sh
# Compare two benchmark JSON files written by scripts/bench_json.sh,
# matching benchmarks by name and printing the old/new values with
# percentage deltas. Stdlib tooling only (awk).
#
# Reads the micro-benchmark files (BENCH_portal.json, BENCH_sim.json;
# one object per line, ns/op + B/op + allocs/op — negative deltas are
# improvements).
#
# Kernel regression gate: any BenchmarkSim* (p2psim hot paths),
# BenchmarkEngine* (core.Engine Update and Matrix) or BenchmarkP4PSelect*
# (apptracker.P4P.Select) whose new ns/op exceeds the old by more than
# 10% is flagged and the script exits non-zero, so CI (or a pre-commit
# diff against the checked-in baseline) fails loud on hot-path
# regressions. All three families are deterministic, CPU-bound and
# socket-free. The BenchmarkSim* rows are gated on allocs/op as well:
# more than +2% fails, because the simulator's allocation count per run
# is exact and its hot paths are pinned allocation-free. A
# BenchmarkP4PSelect* row fails above 1 allocs/op, its result slice.
# A BenchmarkClientDistances* row (one portal.Client poll over loopback)
# fails above +10% B/op: its bytes are what the client's pooled body read
# pins, while its time crosses sockets and is not gated.
# Other benchmarks are reported but not gated:
# the other portal rows cross net/http test plumbing and the experiment
# macro-benchmarks are one-shot runs with real variance.
#
# Usage: bench_diff.sh OLD.json NEW.json
#   e.g. git show HEAD~1:BENCH_sim.json >/tmp/old.json &&
#        scripts/bench_diff.sh /tmp/old.json BENCH_sim.json
set -eu

if [ $# -ne 2 ]; then
	echo "usage: $0 OLD.json NEW.json" >&2
	exit 2
fi

awk '
function field(line, key,    v) {
    v = line
    if (!sub(".*\"" key "\": ", "", v)) return ""
    sub(/[,}].*/, "", v)
    gsub(/"/, "", v)
    return v
}
function pct(old, new) {
    if (old + 0 == 0) return "n/a"
    return sprintf("%+.1f%%", 100 * (new - old) / old)
}
function remember(name) {
    if (!(name in seen)) { order[n++] = name; seen[name] = 1 }
}
FNR == 1 { fileno++ }
/"name":/ {
    name = field($0, "name")
    if (name == "") next
    remember(name)
    # Rows carry every field on the name line.
    if (field($0, "ns_per_op") != "") {
        if (fileno == 1) {
            ons[name] = field($0, "ns_per_op")
            ob[name]  = field($0, "bytes_per_op")
            oa[name]  = field($0, "allocs_per_op")
        } else {
            nns[name] = field($0, "ns_per_op")
            nb[name]  = field($0, "bytes_per_op")
            na[name]  = field($0, "allocs_per_op")
        }
    }
}
END {
    header = 0
    for (i = 0; i < n; i++) {
        name = order[i]
        if (!(name in ons) && !(name in nns)) continue
        if (!header) {
            printf "%-40s %15s %15s %9s %9s %9s\n", \
                "benchmark", "old ns/op", "new ns/op", "ns", "B/op", "allocs"
            header = 1
        }
        if (!(name in ons)) {
            printf "%-40s %15s %15s   (only in new)\n", name, "-", nns[name]
            continue
        }
        if (!(name in nns)) {
            printf "%-40s %15s %15s   (only in old)\n", name, ons[name], "-"
            continue
        }
        printf "%-40s %15s %15s %9s %9s %9s\n", name, ons[name], nns[name], \
            pct(ons[name], nns[name]), pct(ob[name], nb[name]), pct(oa[name], na[name])
        if (name ~ /^Benchmark(Sim|Engine|P4PSelect)/ && ons[name] + 0 > 0 && \
            nns[name] + 0 > ons[name] * 1.10) {
            printf "REGRESSION: %s ns/op %s -> %s (%s > +10%% gate)\n", \
                name, ons[name], nns[name], pct(ons[name], nns[name]) > "/dev/stderr"
            bad = 1
        }
        if (name ~ /^BenchmarkSim/ && oa[name] + 0 > 0 && \
            na[name] + 0 > oa[name] * 1.02) {
            printf "REGRESSION: %s allocs/op %s -> %s (%s > +2%% gate)\n", \
                name, oa[name], na[name], pct(oa[name], na[name]) > "/dev/stderr"
            bad = 1
        }
        if (name ~ /^BenchmarkClientDistances/ && ob[name] + 0 > 0 && \
            nb[name] + 0 > ob[name] * 1.10) {
            printf "REGRESSION: %s B/op %s -> %s (%s > +10%% gate)\n", \
                name, ob[name], nb[name], pct(ob[name], nb[name]) > "/dev/stderr"
            bad = 1
        }
        if (name ~ /^BenchmarkP4PSelect/ && na[name] + 0 > 1) {
            printf "REGRESSION: %s allocs/op %s (> 1 gate)\n", name, na[name] > "/dev/stderr"
            bad = 1
        }
    }
    exit bad
}' "$1" "$2"
