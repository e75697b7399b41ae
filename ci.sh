#!/bin/sh
# CI gate: build, vet, tests, then the full suite under the race detector.
# Performance is not gated here: the benchmark under bench/ (BENCHMARK.json)
# is run parent-vs-change by the pipeline.
set -eux

go build ./...
go vet ./...
go test ./...

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
# executing (DESIGN.md §13).
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
