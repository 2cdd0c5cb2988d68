#!/usr/bin/env bash
# The command BENCHMARK.json names, run from the root of a checkout: build
# the benchmark from source into .bench_build/ (Go's build cache lives there
# too, so nothing is written outside the checkout and the second build is a
# cache hit), then run it from benchmark/ with the driver's arguments.
set -euo pipefail
root=$PWD
export GOCACHE="$root/.bench_build/go-cache" GOTMPDIR="$root/.bench_build/tmp"
export GOWORK=off GOTOOLCHAIN=local
mkdir -p "$GOTMPDIR"
go build -C benchmark -o "$root/.bench_build/rdgc-benchmark" . >&2
cd benchmark
exec "$root/.bench_build/rdgc-benchmark" "$@"
