#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it:
#
#   bash perfbench/run.sh --workload bulk --seed 1 --seconds 10 --trace 0
#
# Run from the root of the checkout. Everything the build and the run
# write stays under .bench_build/ there.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
