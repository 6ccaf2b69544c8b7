#!/usr/bin/env bash
# Builds the benchmark and sweepd from source in the current checkout, then
# runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload sweep-small --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files and
# binaries stay under .bench_build, so nothing is written outside the
# checkout.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

(cd perfbench && go build -o "$build/perfbench" .)
go build -o "$build/sweepd" ./cmd/sweepd
exec "$build/perfbench" -sweepd "$build/sweepd" -workdir "$build/work" "$@"
