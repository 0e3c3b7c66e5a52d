#!/usr/bin/env bash
# The driver's entry point (BENCHMARK.json "command"): build the benchmark
# from source inside the checkout, then run it with the driver's arguments.
# The build cache, temporary files and the binary all live under
# .bench_build in the checkout, so nothing outside it is written; after the
# first build a run only re-checks that the binary is up to date.
set -euo pipefail
bench="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$bench")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -C "$bench" -o "$build/coterie-bench" .
exec "$build/coterie-bench" "$@"
