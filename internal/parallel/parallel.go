// Package parallel provides the data-parallel runtime used by the query
// engine: chunked parallel-for loops with dynamic scheduling,
// a map-reduce with pooled per-worker accumulators, and the shard fan-out.
//
// It plays the role OpenMP plays in the original C++ system: flat
// data-parallel iteration over row ranges with per-worker partial results
// that are merged at the end. All primitives are allocation-conscious and
// safe for repeated use on hot paths.
package parallel

import (
	"context"
	"runtime"
)

// minGrain is the floor of the automatic grain: chunks below it would pay
// more in cursor traffic and task accounting than the loop body earns.
const minGrain = 64

// maxGrain caps the automatic grain so even enormous scans stay responsive
// to cancellation and steal requests.
const maxGrain = 8192

// DefaultWorkers returns the default degree of parallelism, which is the
// current GOMAXPROCS setting. It never returns less than 1.
func DefaultWorkers() int {
	if n := runtime.GOMAXPROCS(0); n > 0 {
		return n
	}
	return 1
}

// Options configures a parallel loop.
type Options struct {
	// Workers is the number of concurrent workers. Zero or negative means
	// DefaultWorkers().
	Workers int
	// Grain is the minimum number of iterations handed to a worker at a
	// time: workers claim Grain-sized chunks from an atomic cursor, which
	// balances skewed workloads the way OpenMP schedule(dynamic) does.
	// Zero means an automatic grain of roughly n/(4*workers) clamped to
	// [64, 8192] — and never more than the ideal per-worker share, so
	// small inputs still fan out to every worker instead of serializing
	// behind one oversized chunk.
	Grain int
	// Context, when non-nil, makes the loop cancellable: workers check it
	// between grains and stop claiming work once it is done. A grain
	// already handed to the body still runs to completion, so
	// cancellation latency is bounded by one grain. The loop still
	// returns normally; callers that need to distinguish a cancelled
	// partial result check Context.Err().
	Context context.Context
	// Worker, when non-nil, binds the loop to the pool worker whose
	// goroutine is making the call (as handed to FanOut jobs). The loop
	// advertises its subtasks on that worker's own deque — shard
	// affinity: the spawner keeps draining them LIFO while idle peers
	// steal. It must only ever name the worker currently executing the
	// caller.
	Worker *Worker
	// Pool overrides the process-default work-stealing pool. Tests use
	// private pools to exercise multi-worker interleavings; production
	// code leaves it nil and shares Default().
	Pool *Pool
}

// cancelled reports whether the loop's context (if any) is done.
func (o Options) cancelled() bool {
	return o.Context != nil && o.Context.Err() != nil
}

func (o Options) workers(n int) int {
	w := o.Workers
	if w <= 0 {
		w = DefaultWorkers()
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

func (o Options) grain(n, workers int) int {
	g := o.Grain
	if g <= 0 {
		g = n / (4 * workers)
		if g < minGrain {
			g = minGrain
		}
		if g > maxGrain {
			g = maxGrain
		}
		// A small input must still fan out: never hand one worker more
		// than the ideal equal share, or a shard with rows < grain runs
		// as a single task no matter how many workers sit idle.
		if per := (n + workers - 1) / workers; g > per {
			g = per
		}
		if g < 1 {
			g = 1
		}
	}
	return g
}

// ForOpt runs body over the half-open index range [0, n) with the given
// options. It returns once every index has been processed — or, when
// opt.Context is cancelled, as soon as in-flight grains finish. A
// single-worker loop degenerates to a direct call with no goroutines.
func ForOpt(n int, opt Options, body func(lo, hi int)) {
	if n <= 0 || opt.cancelled() {
		return
	}
	workers := opt.workers(n)
	if workers == 1 {
		defer recordScan(n, nil)
		if opt.Context == nil {
			body(0, n)
			return
		}
		grain := opt.grain(n, workers)
		for lo := 0; lo < n && !opt.cancelled(); lo += grain {
			hi := lo + grain
			if hi > n {
				hi = n
			}
			body(lo, hi)
		}
		return
	}
	// On the work-stealing pool the loop becomes one
	// scope of `workers` runners draining a shared grain cursor. The
	// calling goroutine joins (it executes runners itself), idle pool
	// workers pick up the advertisements; a runner claimed after the
	// cursor drains is a no-op.
	grain := opt.grain(n, workers)
	cursor := newCursor()
	perRunner := make([]int64, workers)
	p := opt.pool()
	s := p.newScope(workers, func(_ *Worker, r int) {
		for !opt.cancelled() {
			lo, hi := cursor.next(grain, n)
			if lo >= hi {
				return
			}
			perRunner[r]++
			body(lo, hi)
		}
	})
	p.advertise(s, opt.Worker, workers-1)
	s.join(opt.Worker)
	recordScan(n, perRunner)
}
