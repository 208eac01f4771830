#!/usr/bin/env bash
# Entry point of the benchmark: builds the benchmark and nomad-serve
# from the checkout's source, then runs the benchmark with the given
# arguments. Everything written (Go build cache included) stays inside
# the checkout, under .bench_build/ and bench/out/.
#
#   bash bench/run.sh --workload shm-netflix --seed 7 --seconds 15 --trace 0
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
build="$root/.bench_build"
mkdir -p "$build/bin"

export GOCACHE="$build/gocache"
export GOTOOLCHAIN=local

(cd "$bench" && go build -o "$build/bin/" . nomad/cmd/nomad-serve)

cd "$root"
exec "$build/bin/bench" -serve-bin "$build/bin/nomad-serve" "$@"
