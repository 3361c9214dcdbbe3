#!/bin/sh
# Tier-1 verification gate: vet, build, run the quickstart example and
# p4pvet (a finding fails here, in seconds, before the long suites); then
# race-test the whole module; run its allocation pins (every test named
# *Alloc*) again without -race, which inflates allocation counts and
# makes half of them skip; then vet and race-test the nested bench/
# module (its own go.mod, so ./... above does not reach it, and it
# compiles against every package the serving stack exports), and run
# its swarm-p4p workload at two trials of full-size swarms, which checks
# what the one-trial, 200-leecher smoke run cannot: that every trial
# repeats trial 0, and that 1,000-leecher swarms complete. First it
# checks that the line table in DESIGN.md §15 is what
# scripts/loc.sh prints now, and that `make fuzz-smoke` runs exactly the
# module's func Fuzz* targets, each in its own package. Run from
# anywhere; operates on the repo root.
set -eu
cd "$(dirname "$0")/.."

echo '>> DESIGN.md loc block = sh scripts/loc.sh'
LOC_DOC=$(mktemp)
FUZZ_MK=$(mktemp)
trap 'rm -f "$LOC_DOC" "$FUZZ_MK"' EXIT
awk '/^<!-- loc:end -->$/ { f = 0 } f && !/^```/ { print } /^<!-- loc:begin -->$/ { f = 1 }' DESIGN.md >"$LOC_DOC"
if ! sh scripts/loc.sh | diff -u "$LOC_DOC" -; then
	echo "DESIGN.md: the loc block is stale; paste sh scripts/loc.sh between its markers" >&2
	exit 1
fi

echo '>> make fuzz-smoke targets = func Fuzz* in the module'
sed -nE 's|.*-fuzz .\^(Fuzz[A-Za-z0-9_]+)\$\$. .* (\./[^ ]+)$|\1 \2|p' Makefile | sort >"$FUZZ_MK"
if ! grep -rE --include='*_test.go' --exclude-dir=testdata '^func Fuzz[A-Za-z0-9_]+\(' . |
	sed -E 's|^(.*)/[^/:]*:func (Fuzz[A-Za-z0-9_]+).*|\2 \1|' | sort | diff -u "$FUZZ_MK" -; then
	echo "Makefile: fuzz-smoke's targets (-) differ from the module's func Fuzz* (+)" >&2
	exit 1
fi

echo '>> gofmt -l'
UNFORMATTED=$(gofmt -l .)
if [ -n "$UNFORMATTED" ]; then
	echo "gofmt: files need formatting:" >&2
	echo "$UNFORMATTED" >&2
	exit 1
fi
echo '>> go vet ./...'
go vet ./...
echo '>> go build ./...'
go build ./...
echo '>> go run ./examples/quickstart (output discarded, exit status checked)'
go run ./examples/quickstart >/dev/null
echo '>> p4pvet ./...'
go run ./cmd/p4pvet -timing ./...
echo '>> go test -race ./...'
go test -race ./...
echo '>> go test -count=1 -run Alloc ./... (allocation pins, no -race)'
go test -count=1 -run Alloc ./...
echo '>> bench: go vet ./... && go test -race ./...'
(cd bench && go vet ./... && go test -race ./...)
echo '>> bash bench/run.sh --workload swarm-p4p --trials 2 --seconds 8'
bash bench/run.sh --workload swarm-p4p --trials 2 --seconds 8
echo 'verify: OK'
