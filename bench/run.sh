#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of
# the checkout and runs it with the arguments given:
#
#   bash bench/run.sh --workload serve_cold --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write (Go's caches included) stays
# under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
export GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local
go build -C "$here" -o "$build/spacebench" .
cd "$root"
exec "$build/spacebench" -work "$build" "$@"
