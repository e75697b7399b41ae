#!/usr/bin/env bash
# Records one run set: every workload at seeds 1..N (default 10), each run a
# fresh process, appended to the JSON array in the given file. Two sets of
# the same commit are then compared with `bench -compare a.json b.json`.
#
#   bash bench/runset.sh bench/out/set-a.json [N] [seconds]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${1:?usage: runset.sh <set.json> [runs] [seconds]}"
runs="${2:-10}"
seconds="${3:-10}"
for workload in scan.cold route.hot serve.churn live.ingest; do
  for seed in $(seq 1 "$runs"); do
    bash "$here/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 --record "$out" | tail -n 1
  done
done
