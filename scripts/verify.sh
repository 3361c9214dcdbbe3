#!/bin/sh
# Tier-1 verification gate: vet, build, and race-test the whole module,
# then the nested bench/ module (its own go.mod, so ./... above does not
# reach it, and it compiles against every package the serving stack
# exports). Run from anywhere; operates on the repo root.
set -eu
cd "$(dirname "$0")/.."

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
echo '>> bench: go vet ./... && go test -race ./...'
(cd bench && go vet ./... && go test -race ./...)
echo '>> p4pvet ./...'
go run ./cmd/p4pvet -timing ./...
echo 'verify: OK'
