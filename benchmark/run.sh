#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# This is the "command" of BENCHMARK.json, started from the root of a
# checkout:
#
#   bash benchmark/run.sh --workload svc_inproc --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (the binary, the Go build cache) stays
# under .bench_build/ in the checkout, which .gitignore names. The first
# run compiles; later runs find the cache warm and start in well under a
# second. Outside a checkout (no go.mod one directory up for the replace
# directive to find) the build fails and the script exits non-zero
# without printing a result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local
export GOWORK=off

go build -C "$here" -o "$build/benchmark" .
cd "$root"
exec "$build/benchmark" "$@"
