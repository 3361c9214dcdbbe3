GO ?= go

.PHONY: build test race vet p4pvet verify loc fuzz-smoke bench bench-json bench-sim-json

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Repo-specific static analysis (lockheld, ctxflow, floatsentinel,
# sleeptest) over the whole module; -timing, its one flag, reports the
# load/analyze split so CI regressions in wall time are visible. Part
# of the verify gate, right after the build; also runnable standalone.
p4pvet:
	$(GO) run ./cmd/p4pvet -timing ./...

# Tier-1 verification gate (see ROADMAP.md): the DESIGN.md loc block
# against scripts/loc.sh, gofmt, vet, build, a quickstart run, p4pvet,
# race tests, the allocation pins and K-seed LP oracles
# (-run 'Alloc|ConvergesToOptimal') without -race, then the bench/
# module's vet and race tests and a two-trial swarm-p4p run.
verify:
	sh scripts/verify.sh

# Non-test Go lines per package and p4pvet suppressions by rule: the
# table ROADMAP.md and DESIGN.md §15 quote.
loc:
	sh scripts/loc.sh

# Run each native fuzz target for ~10s against its checked-in seed
# corpus. Not part of verify; intended for CI and pre-release runs.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzFromWire$$' -fuzztime 10s ./internal/portal
	$(GO) test -run '^$$' -fuzz '^FuzzBinaryView$$' -fuzztime 10s ./internal/portal
	$(GO) test -run '^$$' -fuzz '^FuzzExpositionParse$$' -fuzztime 10s ./internal/telemetry
	$(GO) test -run '^$$' -fuzz '^FuzzTraceparentParse$$' -fuzztime 10s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzIgnoreDirective$$' -fuzztime 10s ./internal/analysis
	$(GO) test -run '^$$' -fuzz '^FuzzSelectMatchesReference$$' -fuzztime 10s ./internal/apptracker
	$(GO) test -run '^$$' -fuzz '^FuzzNodeJSONMatchesStdlib$$' -fuzztime 10s ./internal/apptracker
	$(GO) test -run '^$$' -fuzz '^FuzzEngineMatchesReference$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzProjectionMatchesReference$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzMaxMatchingMatchesLP$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzEngineSetters$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzITrackerNew$$' -fuzztime 10s ./internal/itracker
	$(GO) test -run '^$$' -fuzz '^FuzzTopologyLinks$$' -fuzztime 10s ./internal/topology
	$(GO) test -run '^$$' -fuzz '^FuzzRatesMatchReference$$' -fuzztime 10s ./internal/p2psim
	$(GO) test -run '^$$' -fuzz '^FuzzQueueOrder$$' -fuzztime 10s ./internal/p2psim
	$(GO) test -run '^$$' -fuzz '^FuzzTieDrawMatchesIntn$$' -fuzztime 10s ./internal/p2psim
	$(GO) test -run '^$$' -fuzz '^FuzzMergeMatchesFloydWarshall$$' -fuzztime 10s ./internal/federation

bench:
	$(GO) test -bench=. -benchmem .

# Portal request, view-recompute and view-codec (JSON vs binary)
# benchmarks, a portal.Client poll (200 and 304), the engine's Update
# and Matrix kernels, the /select request decode and a federation
# router refresh, emitted as JSON at BENCH_portal.json. Diff it with
# scripts/bench_diff.sh against the parent's file made in the same
# session, back to back, from a git worktree (see the script's usage);
# it gates the BenchmarkEngine* rows at +10% ns/op and the
# BenchmarkClientDistances* rows at +10% B/op.
bench-json:
	sh scripts/bench_json.sh portal

# p2psim hot-path benchmarks, P4P.Select at three candidate counts and
# the swarm's shape, and the Figure 7 sweep (parallel and serial),
# emitted as JSON at BENCH_sim.json. Diff it with scripts/bench_diff.sh
# against the parent's file made in the same session, back to back,
# from a git worktree; it gates the BenchmarkSim* rows at +10% ns/op
# and +2% allocs/op, and the BenchmarkP4PSelect* rows at +10% ns/op and
# more than 1 alloc/op.
bench-sim-json:
	sh scripts/bench_json.sh sim
