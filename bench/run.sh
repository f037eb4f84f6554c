#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark (its own module,
# importing the parent module through a replace directive) with a build cache
# inside the checkout, then hands over every argument.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o ../.bench_build/messi-benchmark .
exec .bench_build/messi-benchmark -module bench -work .bench_build "$@"
