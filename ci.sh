#!/bin/sh
# CI gate: build, vet, tests, then the full suite under the race detector.
# Performance is not gated here: the benchmark under bench/ (BENCHMARK.json)
# is run parent-vs-change by the pipeline.
set -eux

go build ./...
go vet ./...
# gofmt gate: every package directory of the root module must be
# gofmt-clean (bench/ is its own module and keeps its own formatting).
test -z "$(gofmt -l $(go list -f '{{.Dir}}' ./...))"
go test ./...

# Link gate: production code is what a binary links, and resident data is
# what it reads. linkgate.go builds every command, example and the benchmark
# with inlining off and fails when a function declared in a non-test file
# under internal/ is linked by none of them and is not on its allowlist
# (oracles, test seams, the bitmap codec kept for serialized index sections,
# the X2 sliced co-report, public-API bodies, test packages — each entry with
# its reason); when a field of store.DB, EventTable, MentionTable, GKGStore or
# GKGTable is selected (go/types) by no linked function outside its plumbing
# set (codec, builder, row copies, splits, invariant checks — each entry with
# its reason); or when an allowlist or plumbing entry has gone stale.
go run linkgate.go

# Fuzz smoke: plain `go test` only replays each target's seed corpus; this
# runs every Fuzz* target for 5 s of fresh inputs (eight targets, ~1 min on
# 2 vCPUs). A failure leaves its input under the package's testdata/fuzz.
for f in $(grep -l '^func Fuzz' $(go list -f '{{range .TestGoFiles}}{{$.Dir}}/{{.}} {{end}}{{range .XTestGoFiles}}{{$.Dir}}/{{.}} {{end}}' ./...)); do
	for fz in $(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' "$f"); do
		go test "$(dirname "$f")" -run '^$' -fuzz "^$fz\$" -fuzztime 5s
	done
done

# Append-log smoke: three appends on the live.ingest-shaped world; a durable
# log grown to K ≈ 50 and K ≈ 200 parts, three timed seals each; three cold
# reopens of a K ≈ 200 log, every part checked against its manifest digest;
# one run each of wildfires, follow, coreport and country on the K ≈ 200
# log. Fails if any of them does. Three fsync-bound seals are a smoke, not a
# measurement: their ns/seal spreads several-fold run to run, so compare
# builds by the counted outputs (written-B/seal, manifest-B, B/op,
# allocs/op). One shard.Split of the gen.Bench store at each of K = 4, 64
# and 512 reports how slicing and the event merge grow with K (ns/op, B/op,
# allocs/op).
go test ./internal/shard -run '^$' -bench 'LogSeal|LogOpen|LogAppend' -benchtime 3x
go test ./internal/shard -run '^$' -bench '^BenchmarkSplit$' -benchtime 1x -benchmem
go test ./internal/shard -run '^$' -bench 'GrownLogKinds' -benchtime 1x

# K=1 parity smoke (~3 s on 2 vCPUs): every kind, GKG ones included, runs
# once on the monolith's engine and once on shard.Single; fails if either
# path errors. Ratios need -benchtime 31x (DESIGN.md §10).
go test ./internal/baseline -run '^$' -bench SingleVsEngine -benchtime 1x

# Stream restart smoke (small preset, ~10 s): the append-log directory is
# gdeltstream's only state. An uninterrupted replay is the reference. A
# replay into a log directory is interrupted with SIGINT — retried with a
# longer delay until the signal lands after at least one tick — and rerun:
# the rerun must find exactly the interrupted run's ticks in the log and
# fold only the rest, exit 3 on the preset's two withheld archives, print
# the reference's totals and gap list, and fire, with the first run, the
# reference's alerts. gdeltserve must then serve the directory's world.
smoke=$(mktemp -d)
go build -o "$smoke/" ./cmd/gdeltgen ./cmd/gdeltstream ./cmd/gdeltserve
"$smoke/gdeltgen" -out "$smoke/ds" -preset small
rc=0
"$smoke/gdeltstream" -in "$smoke/ds" -progress 0 >"$smoke/full.txt" || rc=$?
test "$rc" -eq 3
for delay in 0.05 0.1 0.2 0.4 0.8; do
	rm -rf "$smoke/log"
	rc=0
	timeout --preserve-status -s INT "$delay" "$smoke/gdeltstream" -in "$smoke/ds" -progress 0 \
		-checkpoint "$smoke/log" >"$smoke/run1.txt" 2>"$smoke/run1.err" || rc=$?
	folded=$(sed -n 's/.*interrupted after \([0-9]*\) ticks.*/\1/p' "$smoke/run1.err")
	if [ "$rc" -eq 1 ] && [ "${folded:-0}" -gt 0 ]; then break; fi
done
test "$rc" -eq 1 && test "$folded" -gt 0
rc=0
"$smoke/gdeltstream" -in "$smoke/ds" -progress 0 -checkpoint "$smoke/log" >"$smoke/run2.txt" || rc=$?
test "$rc" -eq 3
grep -q "^resumed log: $folded ticks already folded" "$smoke/run2.txt"
totals() { grep -E '^(log:|  [0-9]+\. |  [0-9]{14}$)' "$@"; }
test "$(totals "$smoke/full.txt")" = "$(totals "$smoke/run2.txt")"
test "$(grep '^ALERT' "$smoke/full.txt" | sort)" = "$(cat "$smoke/run1.txt" "$smoke/run2.txt" | grep '^ALERT' | sort)"
articles=$(sed -n 's/^log: \([0-9,]*\) articles.*/\1/p' "$smoke/run2.txt" | tr -d ,)
"$smoke/gdeltserve" -db "$smoke/log" -addr 127.0.0.1:18391 &
serve=$!
for i in $(seq 50); do curl -sf http://127.0.0.1:18391/readyz >/dev/null && break; sleep 0.2; done
stats=$(curl -sf http://127.0.0.1:18391/api/v1/stats) || true
kill "$serve"
wait "$serve" || true
echo "$stats" | grep -q "\"Articles\":$articles,"
# Damaged chunk: one byte of a listed mentions file flipped, its size kept.
# The chunk fails its master-list CRC, so its tick folds nothing and the
# replay exits 3 with that tick in its gap list.
f=$(ls "$smoke"/ds/*.mentions.csv | sed -n 20p)
ts=$(basename "$f" .mentions.csv)
if grep -qx "  $ts" "$smoke/full.txt"; then exit 1; fi # not already a gap
b=$(dd if="$f" bs=1 skip=100 count=1 2>/dev/null)
if [ "$b" = x ]; then b=y; else b=x; fi
printf '%s' "$b" | dd of="$f" bs=1 seek=100 count=1 conv=notrunc 2>/dev/null
rc=0
"$smoke/gdeltstream" -in "$smoke/ds" -progress 0 >"$smoke/damaged.txt" 2>"$smoke/damaged.err" || rc=$?
test "$rc" -eq 3
grep -qx "  $ts" "$smoke/damaged.txt"
rm -rf "$smoke"

# Convert smoke (small preset, ~10 s): the on-disk round trip of a converted
# sharded layout. gdeltconvert -shards 4 writes the monolith and its .shards
# directory (every part over the world's dictionary ids); gdeltserve serves
# each, and every kind below must answer byte-identically from the two; the
# three GKG kinds read the theme postings and translated flags each part
# decodes from its GKG section. The .shards server gets an 8 KB result
# cache, too small for these answers, so the second pass over the kinds
# reads some from the cache and recomputes the evicted rest, and /metrics
# must show that the cache evicted. gdeltrouter fronts the two servers:
# every kind must answer through it byte-identically to the servers, and
# the same request sent again at once must come back X-Cache: hit from the
# router's cache of fresh answers, which /metrics must count. gdeltquery
# -json over the .gdmb answers on the served path, so its stdout must be
# byte-identical to the monolith server's body for every kind below and
# for count with a where. The windowed plan paths (a shard the window
# misses is not run, index operands are clipped to the window, quarter
# counts come from row offsets) answer series-articles, top-publishers,
# country, count with a where and query with a where and a group over two
# from/to windows, one inside a part and one across parts, and each body
# must be byte-identical from the two servers and the router. First,
# gdeltgen, gdeltconvert and the raw re-scan handle chunks W at a time on
# parallel.Ordered, and their output must not depend on W: gdeltgen and
# gdeltconvert run again at GOMAXPROCS=1 must write an identical dataset
# directory and .gdmb file and print the same Table II.
conv=$(mktemp -d)
go build -o "$conv/" ./cmd/gdeltgen ./cmd/gdeltconvert ./cmd/gdeltserve ./cmd/gdeltrouter ./cmd/gdeltquery
"$conv/gdeltgen" -out "$conv/ds" -preset small
"$conv/gdeltconvert" -in "$conv/ds" -out "$conv/db.gdmb" -shards 4 >"$conv/convert.txt"
GOMAXPROCS=1 "$conv/gdeltgen" -out "$conv/ds1" -preset small
GOMAXPROCS=1 "$conv/gdeltconvert" -in "$conv/ds1" -out "$conv/db1.gdmb" -shards 4 >"$conv/convert1.txt"
diff -r "$conv/ds" "$conv/ds1"
cmp "$conv/db.gdmb" "$conv/db1.gdmb"
table() { sed -n '/^Table II:/,$p' "$1"; }
test -n "$(table "$conv/convert.txt")"
test "$(table "$conv/convert.txt")" = "$(table "$conv/convert1.txt")"
"$conv/gdeltserve" -db "$conv/db.gdmb" -addr 127.0.0.1:18392 &
mono=$!
"$conv/gdeltserve" -db "$conv/db.gdmb.shards" -addr 127.0.0.1:18393 -cache-bytes 8192 &
sharded=$!
"$conv/gdeltrouter" -replicas http://127.0.0.1:18392,http://127.0.0.1:18393 -addr 127.0.0.1:18394 &
router=$!
for port in 18392 18393 18394; do
	for i in $(seq 50); do curl -sf "http://127.0.0.1:$port/readyz" >/dev/null && break; sleep 0.2; done
done
rc=0
for pass in 1 2; do
	for kind in stats top-publishers coreport follow country wildfires themes 'theme-trends?theme=TERROR' translated-share series-active-sources; do
		curl -sf "http://127.0.0.1:18392/api/v1/$kind" >"$conv/mono.json" || rc=1
		curl -sf "http://127.0.0.1:18393/api/v1/$kind" >"$conv/sharded.json" || rc=1
		{ test -s "$conv/mono.json" && cmp "$conv/mono.json" "$conv/sharded.json"; } || rc=1
		curl -sf "http://127.0.0.1:18394/api/v1/$kind" >"$conv/routed.json" || rc=1
		curl -sf -D "$conv/again.hdr" "http://127.0.0.1:18394/api/v1/$kind" >"$conv/again.json" || rc=1
		cmp "$conv/mono.json" "$conv/routed.json" || rc=1
		cmp "$conv/mono.json" "$conv/again.json" || rc=1
		tr -d '\r' <"$conv/again.hdr" | grep -qix 'X-Cache: hit' || rc=1
	done
done
for q in 'series-articles?' 'top-publishers?' 'country?' \
	'count?where=sourcecountry%3DUS%20and%20tone%3C0&' \
	'query?where=sourcecountry%3DUK%20and%20delay%3E2&group=quarter&'; do
	for win in 'from=20160101000000&to=20160701000000' 'from=20161115000000&to=20180301000000'; do
		for port in 18392 18393 18394; do
			curl -sf "http://127.0.0.1:$port/api/v1/$q$win" >"$conv/win$port.json" || rc=1
		done
		{ test -s "$conv/win18392.json" && cmp "$conv/win18392.json" "$conv/win18393.json" &&
			cmp "$conv/win18392.json" "$conv/win18394.json"; } || rc=1
	done
done
# cli KIND [NAME=VALUE]: gdeltquery's -json stdout equals the monolith's body.
cli() {
	curl -sfG "http://127.0.0.1:18392/api/v1/$1" ${2:+--data-urlencode "$2"} >"$conv/mono.json" || rc=1
	"$conv/gdeltquery" -db "$conv/db.gdmb" "$1" ${2:+-param "$2"} -json >"$conv/cli.json" 2>/dev/null || rc=1
	{ test -s "$conv/mono.json" && cmp "$conv/mono.json" "$conv/cli.json"; } || rc=1
}
for kind in stats top-publishers coreport follow country wildfires themes translated-share series-active-sources; do
	cli "$kind"
done
cli theme-trends theme=TERROR
cli count 'where=sourcecountry=US and delay>2'
curl -sf "http://127.0.0.1:18393/metrics" >"$conv/metrics.txt" || rc=1
awk '$1 == "qcache_evictions_total" && $2 > 0 { ok = 1 } END { exit !ok }' "$conv/metrics.txt" || rc=1
curl -sf "http://127.0.0.1:18394/metrics" >"$conv/router-metrics.txt" || rc=1
awk '$1 == "router_cache_hits_total" && $2 > 0 { ok = 1 } END { exit !ok }' "$conv/router-metrics.txt" || rc=1
kill "$mono" "$sharded" "$router"
wait "$mono" "$sharded" "$router" || true
test "$rc" -eq 0
rm -rf "$conv"

# bench/ is its own module, so the root ./... above never sees it: vet and
# test it here, or a PR could delete an API the benchmark imports and stay
# green.
(cd bench && go vet ./... && go test ./...)

# The race run is where the batteries below earn their keep; every one of
# them is an ordinary test of its package, so this one invocation runs them
# all (each name was checked with -run <name> -v before its separate re-run
# line was dropped).
#
# internal/serve: the shutdown drain, the scan-cancellation paths and the
# concurrent /metrics-scrape-while-querying test, each over a K=1 and a K=3
# world.
#
# Registry differential (internal/baseline,
# TestRegistryDifferentialCachedVsUncached): every registered query kind runs
# uncached and through the result cache (cold and warm, at different worker
# counts) and all three answers must agree — exact for integers, 1e-9
# relative for floats. Catches cache-key instability and reduction-order bugs.
# Its windowed K=3 half (TestRegistryDifferentialCachedVsUncachedWindowed)
# runs every kind over five windows through one shared cache, cold and warm
# against uncached, and requires country's archive half to be computed once
# for all five windows.
#
# Stale-key table test (internal/baseline, TestRegistryStaleKeyAfterAppend):
# on a K=3 log every kind is cached at a first-shard window, one tick appends
# a new event and a mention of a first-shard event, and every cached answer
# must then equal the uncached one, while the window-only series-articles
# over the untouched shard must still hit.
#
# Shard differential + metamorphic battery (internal/baseline,
# TestShardDifferential*, TestShardMetamorphic*, TestShardCancellation*):
# every kind on shard.Single and sharded at K in {1,3,5} x workers {1,4} must
# equal the monolith bit-exactly (1e-9 for floats), and the answers must be
# invariant under shard-boundary moves, shard permutation, and window
# split/merge. The battery includes the skewed-shard sweep (80/20 splits at
# K in {3,5}), which forces the work-stealing executor's steal path: workers
# finishing tiny shards must pick up grains from the big shard's kernels with
# the race detector watching. The fan-out path runs every shard's kernels
# concurrently, so -race here guards the remap-and-reduce merge code and the
# cross-shard atomics.
#
# Plan-kind battery (internal/baseline, TestPlanKindsMatchRowStore): the six
# kinds declared as plans (top-publishers, series-articles,
# series-slow-articles, count, filtered-series, filtered-publishers) on the
# monolith's engine and on K in {Single,1,3,5}, over the full archive, one
# quarter and the publisher edge windows (the empty one included), at k = 1,
# the default and every source, with a where matching nothing and wheres
# with residual clauses, must encode to the JSON of a row-store count. The
# batteries retargeted at the plan kinds ride along: the plan-kind subtests
# of TestDifferentialEngineVsRowStore, TestPanelKernelsExactEdges'
# publisher edges, TestShardMetamorphicWindowSplit and
# TestShardMetamorphicTopKUnion through the registry, and the selection,
# append and windowed-registry batteries ranking their panels with a
# per-row loop. The reference closure kernels (internal/baseline,
# kernels.go) run their own serial-loop tests here too.
#
# Executor pool smoke (internal/parallel, TestDefaultPoolIsSingleton,
# TestPoolNoGoroutineLeakAcrossLoops, TestFanOut*): the process-default
# work-stealing pool must be built exactly once no matter how many parallel
# loops run (asserted through the parallel_pool_starts_total obs counter),
# and cancelled fan-outs must drain without leaking goroutines.
#
# Qlang differential battery (internal/baseline, TestQlangDifferential*,
# TestQlangExplain*): randomized qlang expressions x 2 seeded worlds x
# {monolith, K in {1,4}} x workers {1,4}, run through the planner's own path
# choice, must agree with an independent naive evaluator — exact for counts,
# 1e-9 relative for float aggregates — every world's cases must reach the
# pushdown, range and scan paths, and explain=1 must report a plan without
# executing (DESIGN.md §13). TestQlangFusedScanMetrics pins the fused
# fold's one scan per shard the window overlaps for a grouped mean with a
# residual clause. The windowed-plan battery (TestQlangWindowCutsContainers,
# TestQlangClippedEstimateFlipsToPushdown, TestQlangWindowedQuarterCounts)
# checks windows whose edges cut 65,536-row bitmap containers, a head
# country the clipped estimate pushes down, and quarter counts from row
# offsets against the naive evaluator at K in {Single,1,3,5}.
#
# Qlang stage table (internal/qlang, TestStagesMatchNaiveEvaluator,
# TestStagesUntaggedEvents): every field x every operator x edge literals
# (int64 limits, values past each column type's range, NaN and the
# infinities, quarters outside the archive, unknown sources and countries)
# compiled to typed batch stages must select exactly the rows of a per-row
# evaluator written in the test, over empty, one-row, odd-sized and full
# windows, appending after an existing prefix; Refine must equal Select.
#
# Router chaos (internal/router, TestChaos*): a real fleet of interchangeable
# replicas, each serving the full K=4 world, behind the router, with
# deterministic replica faults (internal/faults.ReplicaChaos). With any 3 of
# 4 replicas down, and with each replica of a default-configured 3-replica
# fleet as the sole survivor (probed or not), every query kind must answer
# bit-identical to the monolith with no coverage metadata; with every
# replica down the router answers the 503 envelope and /readyz 503.
# Hedging, per-try timeouts, the MaxAttempts bound, breakers and per-tenant
# admission run under the same battery, and
# TestMonolithReplicasRouteAsOneShard fronts two K=1 replicas.
#
# Compaction differential (internal/baseline, TestCompactionDifferential*):
# a world grown the streaming way — batch prefix, feed ticks appended into
# the log's mutable tail, compactor seals interleaved — must answer every
# registered query kind exactly like the same rows batch-built in one shot,
# at K in {1,4} x workers {1,4} on two seeded worlds. Pins the append-log
# lifecycle end to end: copy-on-write sharing, seal slicing, version
# carry-forward, and the derived-index rebuild of sealed parts.
#
# Append-log battery (internal/shard, TestLog*): the snapshot isolation,
# seal, persist-roundtrip and cache-key-safety pins; the incremental-append
# pins (incrementally maintained world == cold-start rebuild after every
# tick and seal of a 200-tick schedule whose event ids arrive out of order;
# a held snapshot answers every kind byte-identically while a writer appends
# 100+ ticks and seals; bytes allocated per append do not grow with the
# sealed world); plus the crash harness that kills the compactor's persist
# protocol at every write/sync/rename step and requires the reloaded
# manifest to be fully-old or fully-new — never torn. Append throughput
# itself is the live.ingest workload of the benchmark. The live-feed
# end-to-end test (outage, duplicate tick, reordered drop against a local
# feed server) and the restart tests (a poller or replay resumed over its
# reopened log directory must drop the ticks the ledger holds as
# duplicates, re-skip gaps too old for the grace window, and end in the
# world of an uninterrupted run for every kind) ride along in
# internal/stream (TestLiveFeedEndToEnd, TestLiveResumeFromCheckpoint,
# TestCheckpointResume).
go test -race ./...
