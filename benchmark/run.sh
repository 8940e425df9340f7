#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the benchmark from the checkout's
# source into .bench_build/ (nothing is read or written outside the checkout,
# the Go build cache included) and run it with the arguments given.
#
#   bash benchmark/run.sh --workload ojsp-large --seed 1 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
