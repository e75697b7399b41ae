package shard

import (
	"context"
	"sort"
	"strconv"
	"strings"

	"gdeltmine/internal/engine"
	"gdeltmine/internal/parallel"
)

// View is the sharded analogue of engine.Engine: an immutable execution
// context (workers, cancellation, query kind, capture-interval window)
// over a sharded DB. The With* methods return modified copies, so views
// derived per request never race.
type View struct {
	s        *DB
	workers  int
	ctx      context.Context
	kind     string
	from, to int32
	windowed bool
	// subset, when non-nil, restricts mention-scan fan-out to the marked
	// shards (degraded serving: the routing tier excludes shards whose
	// replica group is down). Excluded shards contribute an explicitly
	// empty mention window; event-table, postings and GKG scans are
	// unaffected, mirroring WithInterval's semantics.
	subset []bool
}

// View returns an execution context over the sharded DB with default
// worker count, no window restriction, and background context.
func (s *DB) View() *View {
	return &View{s: s}
}

// WithWorkers returns a copy using n workers (0 means the default).
func (v *View) WithWorkers(n int) *View {
	w := *v
	w.workers = n
	return &w
}

// WithContext returns a copy carrying ctx for cancellation.
func (v *View) WithContext(ctx context.Context) *View {
	w := *v
	w.ctx = ctx
	return &w
}

// WithKind returns a copy labelled with the query kind (observability).
func (v *View) WithKind(kind string) *View {
	w := *v
	w.kind = kind
	return &w
}

// WithWindow returns a copy restricted to capture intervals [from, to).
// Mirrors engine.WithInterval: from == to == 0 means an explicitly empty
// window.
func (v *View) WithWindow(from, to int32) *View {
	w := *v
	w.from, w.to = from, to
	w.windowed = true
	return &w
}

// WithShards returns a copy restricted to the given shard indices: mention
// scans fan out only over the selected shards, the rest contribute no rows.
// Out-of-range indices are ignored; duplicates collapse. A nil or empty idx
// removes the restriction. Like WithInterval on the engine, the restriction
// applies to mention-window kernels — event-table, postings and GKG scans
// still see the assembly-time global tables (the routing tier flags such
// responses as partial by coverage metadata, not by value).
func (v *View) WithShards(idx []int) *View {
	w := *v
	if len(idx) == 0 {
		w.subset = nil
		return &w
	}
	sel := make([]bool, v.s.K())
	for _, i := range idx {
		if i >= 0 && i < len(sel) {
			sel[i] = true
		}
	}
	w.subset = sel
	return &w
}

// ShardSubset returns the restricted shard indices in ascending order, or
// nil when the view covers every shard.
func (v *View) ShardSubset() []int {
	if v.subset == nil {
		return nil
	}
	var out []int
	for i, ok := range v.subset {
		if ok {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}

// ShardScope renders the subset restriction as the cache-key scope
// component ("shards=0,1"), or "" for a full-coverage view. Full and
// partial executions of the same query therefore occupy distinct cache
// entries — a degraded result is never served to a full-coverage request.
func (v *View) ShardScope() string {
	sub := v.ShardSubset()
	if sub == nil {
		return ""
	}
	var b strings.Builder
	b.WriteString("shards=")
	for i, s := range sub {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(s))
	}
	return b.String()
}

// DB returns the underlying sharded store.
func (v *View) DB() *DB { return v.s }

// Context returns the cancellation context (Background when unset).
func (v *View) Context() context.Context {
	if v.ctx == nil {
		return context.Background()
	}
	return v.ctx
}

// Window reports the effective capture-interval window [from, to).
func (v *View) Window() (from, to int32) {
	if !v.windowed {
		return 0, v.s.meta.Intervals
	}
	return v.from, v.to
}

// opt returns parallel options matching the view's configuration, for
// reductions the view runs itself (over global events or sources).
func (v *View) opt() parallel.Options {
	return parallel.Options{Workers: v.workers, Context: v.ctx}
}

// optW returns the view's options bound to the pool worker executing the
// calling shard job, so raw loops inside forEachShard bodies advertise
// their grains on that worker's own deque (shard affinity) instead of the
// global injection queue.
func (v *View) optW(w *parallel.Worker) parallel.Options {
	opt := v.opt()
	opt.Worker = w
	return opt
}

// forEachShard is the cross-shard fan-out primitive: job runs once per
// shard, all shards concurrently as top-level tasks on the work-stealing
// pool (parallel.FanOut), so small shards never serialize behind large
// ones — a worker finishing its shard steals grains from the shards still
// running. Each job receives the executing pool worker (nil when run
// inline or by a non-pool joiner) and the shard's engine bound to that
// worker, which routes inner kernel grains and accumulator reuse to the
// worker that started the shard. Jobs must write only shard-indexed state;
// anything cross-shard needs commutative atomics. Under cancellation
// unclaimed jobs are skipped — their output slots stay zero — and
// forEachShard still returns only after in-flight jobs finish, so no task
// of the fan-out survives the call.
func (v *View) forEachShard(job func(w *parallel.Worker, i int, e *engine.Engine)) {
	engines := v.engines()
	parallel.FanOut(len(engines), v.opt(), func(w *parallel.Worker, i int) {
		job(w, i, engines[i].WithWorker(w))
	})
}

// engines returns one engine per shard, each carrying the view's workers,
// context and kind, and — when the view is windowed — the window clipped
// by each engine to its own mention rows. Every shard gets an engine even
// if the window misses it entirely (its kernels then see no rows), which
// keeps fan-out loops free of index bookkeeping.
func (v *View) engines() []*engine.Engine {
	es := make([]*engine.Engine, v.s.K())
	for i, p := range v.s.parts {
		e := engine.New(p).WithWorkers(v.workers).WithContext(v.ctx).WithKind(v.kind)
		switch {
		case v.subset != nil && !v.subset[i]:
			// Excluded shard: an explicitly empty window, so its kernels
			// run over zero rows and the reduction shape stays uniform.
			e = e.WithInterval(0, 0)
		case v.windowed:
			e = e.WithInterval(v.from, v.to)
		}
		es[i] = e
	}
	return es
}
