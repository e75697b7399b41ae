#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# .bench_build/ at the checkout root (build cache included, so nothing is
# written outside the checkout) and runs it with the given arguments.
#
#   bash bench/run.sh --workload scan.cold --seed 0 --seconds 10 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -buildvcs=false -o "$build/gdelt-bench" .)
exec "$build/gdelt-bench" -out "$here/out" "$@"
