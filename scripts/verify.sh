#!/bin/sh
# Tier-1 verification gate: vet, build, and race-test the whole module;
# run its allocation pins (every test named *Alloc*) again without
# -race, which inflates allocation counts and makes half of them skip;
# then vet and race-test the nested bench/ module (its own go.mod, so
# ./... above does not reach it, and it compiles against every package
# the serving stack exports); then p4pvet. First it checks that the
# line table in DESIGN.md §15 is what scripts/loc.sh prints now. Run
# from anywhere; operates on the repo root.
set -eu
cd "$(dirname "$0")/.."

echo '>> DESIGN.md loc block = sh scripts/loc.sh'
LOC_DOC=$(mktemp)
trap 'rm -f "$LOC_DOC"' EXIT
awk '/^<!-- loc:end -->$/ { f = 0 } f && !/^```/ { print } /^<!-- loc:begin -->$/ { f = 1 }' DESIGN.md >"$LOC_DOC"
if ! sh scripts/loc.sh | diff -u "$LOC_DOC" -; then
	echo "DESIGN.md: the loc block is stale; paste sh scripts/loc.sh between its markers" >&2
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
echo '>> go test -race ./...'
go test -race ./...
echo '>> go test -count=1 -run Alloc ./... (allocation pins, no -race)'
go test -count=1 -run Alloc ./...
echo '>> bench: go vet ./... && go test -race ./...'
(cd bench && go vet ./... && go test -race ./...)
echo '>> p4pvet ./...'
go run ./cmd/p4pvet -timing ./...
echo 'verify: OK'
