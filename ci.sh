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

# Fuzz smoke: plain `go test` only replays each target's seed corpus; this
# runs every Fuzz* target for 5 s of fresh inputs (eight targets, ~1 min on
# 2 vCPUs). A failure leaves its input under the package's testdata/fuzz.
for f in $(grep -l '^func Fuzz' $(go list -f '{{range .TestGoFiles}}{{$.Dir}}/{{.}} {{end}}{{range .XTestGoFiles}}{{$.Dir}}/{{.}} {{end}}' ./...)); do
	for fz in $(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' "$f"); do
		go test "$(dirname "$f")" -run '^$' -fuzz "^$fz\$" -fuzztime 5s
	done
done

# Append-log smoke: three appends on the live.ingest-shaped world; a durable
# log grown to K ≈ 50 and K ≈ 200 parts, three timed seals each (ns and
# written bytes per seal); three cold reopens of a K ≈ 200 log, every part
# checked against its manifest digest. Fails if any of them does.
go test ./internal/shard -run '^$' -bench 'LogSeal|LogOpen|LogAppend' -benchtime 3x

# K=1 parity smoke (~3 s on 2 vCPUs): every kind, GKG ones included, runs
# once on the monolith's engine and once on shard.Single; fails if either
# path errors. Ratios need -benchtime 31x (DESIGN.md §10).
go test ./internal/baseline -run '^$' -bench SingleVsEngine -benchtime 1x

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
# fold's one scan per shard for a grouped mean with a residual clause.
#
# Qlang stage table (internal/qlang, TestStagesMatchNaiveEvaluator,
# TestStagesUntaggedEvents): every field x every operator x edge literals
# (int64 limits, values past each column type's range, NaN and the
# infinities, quarters outside the archive, unknown sources and countries)
# compiled to typed batch stages must select exactly the rows of a per-row
# evaluator written in the test, over empty, one-row, odd-sized and full
# windows, appending after an existing prefix; Refine must equal Select.
#
# Router chaos (internal/router, TestChaos*): a real 4-replica 2-group fleet
# behind the scatter/gather router, with deterministic replica faults
# (internal/faults.ReplicaChaos). Kill one replica per group and every query
# kind must still answer bit-identical to the monolith with full coverage;
# kill a whole group and every kind must degrade to an explicit
# partial-coverage 200 (never a 5xx), with the partial result kept out of the
# full-coverage cache entry. Hedging, per-try timeouts, breakers and
# per-tenant admission run under the same battery, and
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
# feed server) and the checkpoint-resume test (a restarted poller must drop
# checkpointed ticks as duplicates and re-skip gaps too old for the grace
# window, never re-folding them) ride along in internal/stream
# (TestLiveFeedEndToEnd, TestLiveResumeFromCheckpoint, TestCheckpoint*).
go test -race ./...
