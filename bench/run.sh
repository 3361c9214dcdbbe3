#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it from there. Every Go cache is kept inside the
# checkout, so a run reads and writes nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
(cd "$root/bench" && go build -o "$build/p4pbench" .) >&2
cd "$root"
exec "$build/p4pbench" "$@"
