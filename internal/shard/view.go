package shard

import (
	"context"

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

// Workers returns the view's worker count (0 means the default).
func (v *View) Workers() int { return v.workers }

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
	engines := make([]*engine.Engine, v.s.K())
	for i := range engines {
		engines[i] = v.engine(i)
	}
	parallel.FanOut(len(engines), v.opt(), func(w *parallel.Worker, i int) {
		job(w, i, engines[i].WithWorker(w))
	})
}

// forEachWindowShard is forEachShard over the shards the view's mention
// window reaches: a shard whose interval bounds miss the window, or whose
// window holds no mention row, is never visited, and its slot stays zero.
// The mention-window fan-outs (the ad-hoc plans, country's cross count)
// use it, so a windowed query costs the parts it overlaps, not every part.
func (v *View) forEachWindowShard(job func(w *parallel.Worker, i int, e *engine.Engine)) {
	lo, hi := 0, v.s.K()
	if v.windowed {
		lo, hi = v.s.overlapping(v.from, v.to)
	}
	var idx []int
	var engines []*engine.Engine
	for i := lo; i < hi; i++ {
		if e := v.engine(i); e.WindowSize() > 0 {
			idx, engines = append(idx, i), append(engines, e)
		}
	}
	parallel.FanOut(len(engines), v.opt(), func(w *parallel.Worker, j int) {
		job(w, idx[j], engines[j].WithWorker(w))
	})
}

// engine returns shard i's engine, carrying the view's workers, context
// and kind, and — when the view is windowed — the window clipped by the
// engine to the shard's own mention rows. forEachShard gives a shard the
// window misses an engine too, with an empty window, because its jobs
// (event-table and postings kernels the window does not reach) fill every
// shard's slot; forEachWindowShard skips it.
func (v *View) engine(i int) *engine.Engine {
	e := engine.New(v.s.parts[i]).WithWorkers(v.workers).WithContext(v.ctx).WithKind(v.kind)
	if v.windowed {
		e = e.WithInterval(v.from, v.to)
	}
	return e
}
