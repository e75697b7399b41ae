package parallel

import (
	"sync"
	"sync/atomic"
	"time"

	"gdeltmine/internal/obs"
)

// This file implements the persistent work-stealing pool behind every
// multi-worker loop in the package. The design is built around one
// invariant that makes nested parallelism deadlock-free by construction:
//
//   Pool queues hold *advertisements* (hints that a scope has claimable
//   runners), never exclusive ownership of work. The goroutine that joins
//   a scope first claims and executes every runner not yet taken, and only
//   then waits — so it waits exclusively on runners that are actively
//   executing on other goroutines. By induction on nesting depth those
//   always finish, even when every pool worker is blocked in a join of its
//   own (the old spawn-and-join implementation could not make that claim
//   once merges themselves ran parallel loops).
//
// Affinity falls out of the queue topology: a scope spawned by a pool
// worker is advertised on that worker's own deque, which the owner pops
// LIFO — it keeps working the shard it started, remaps and postings still
// cache-warm — while idle peers steal FIFO, taking the oldest (coarsest)
// scope first. Advertisements are droppable hints; completion never
// depends on one being seen.

var (
	mPoolStarts = obs.Default.Counter("parallel_pool_starts_total",
		"process-default work-stealing pools started (stays 1 for the process lifetime)")
	mPoolBuilds = obs.Default.Counter("parallel_pool_builds_total",
		"work-stealing pools constructed, including private test pools")
	mPoolWorkers = obs.Default.Gauge("parallel_pool_workers",
		"goroutines in the process-default work-stealing pool")
	mPoolTasks = obs.Default.Counter("parallel_pool_tasks_total",
		"scope runners executed, by joiners and pool workers alike")
	mPoolSteals = obs.Default.Counter("parallel_pool_steals_total",
		"scope advertisements taken from another worker's deque")
	mPoolParks = obs.Default.Counter("parallel_pool_parks_total",
		"times a pool worker found no claimable work and parked")
	mPoolBusy = obs.Default.Counter("parallel_pool_busy_nanos_total",
		"nanoseconds participants spent executing runners (utilization numerator)")
	mPoolDispatch = obs.Default.Histogram("parallel_pool_dispatch_seconds",
		"delay between a scope being posted and a pool worker attaching to it",
		obs.LatencyBuckets)
	mPoolTaskSeconds = obs.Default.Histogram("parallel_pool_task_seconds",
		"single runner execution latency", obs.LatencyBuckets)
)

// scope is one parallel construct in flight: nrun logical runners drained
// through the atomic claim cursor by whoever participates — the joining
// goroutine plus any pool workers that picked up an advertisement. A
// runner index is executed exactly once; fin closes when the last one
// finishes.
type scope struct {
	run    func(w *Worker, runner int)
	claim  atomic.Int32
	done   atomic.Int32
	nrun   int32
	fin    chan struct{}
	posted time.Time
}

func (s *scope) exec(w *Worker, i int) {
	start := time.Now()
	s.run(w, i)
	d := time.Since(start)
	mPoolBusy.Add(d.Nanoseconds())
	mPoolTaskSeconds.Observe(d.Seconds())
	mPoolTasks.Inc()
	if s.done.Add(1) == s.nrun {
		close(s.fin)
	}
}

// join makes the calling goroutine a participant: it claims and executes
// every runner not yet taken, then waits for the ones stolen by other
// participants. It never returns early — cancellation is observed by the
// runners themselves, between grains — so when join returns, no task of
// this scope exists anywhere in the pool. That is the drain guarantee the
// cancellation battery pins: a cancelled view finishes its in-flight
// grains and leaves nothing queued.
func (s *scope) join(w *Worker) {
	for {
		i := s.claim.Add(1) - 1
		if i >= s.nrun {
			break
		}
		s.exec(w, int(i))
	}
	<-s.fin
}

// Worker is one goroutine of a Pool plus its deque of scope
// advertisements. A FanOut job receives the Worker executing it and binds
// it into inner loop Options, which puts the shard's inner grains on this
// deque: the worker that started a shard keeps draining it while idle peers
// steal.
type Worker struct {
	pool *Pool
	id   int

	mu sync.Mutex
	dq []*scope
}

// Pool is a persistent set of worker goroutines executing scope runners.
// One default pool serves the whole process (see Default); tests build
// private pools to exercise multi-worker interleavings regardless of
// GOMAXPROCS.
type Pool struct {
	workers []*Worker
	inject  chan *scope   // advertisements from non-pool goroutines
	wake    chan struct{} // nudges parked workers to rescan the deques
	stop    chan struct{}
}

// NewPool starts a pool with n worker goroutines (GOMAXPROCS when n <= 0).
func NewPool(n int) *Pool {
	if n <= 0 {
		n = DefaultWorkers()
	}
	p := &Pool{
		workers: make([]*Worker, n),
		inject:  make(chan *scope, 4*n),
		wake:    make(chan struct{}, n),
		stop:    make(chan struct{}),
	}
	for i := range p.workers {
		p.workers[i] = &Worker{pool: p, id: i}
	}
	for _, w := range p.workers {
		go w.loop()
	}
	mPoolBuilds.Inc()
	return p
}

// Size returns the number of worker goroutines.
func (p *Pool) Size() int { return len(p.workers) }

// Close stops the pool's workers once they go idle. Joins in flight still
// complete — joiners are self-sufficient — so Close is safe at any time,
// but only private test pools are ever closed; the default pool lives for
// the process.
func (p *Pool) Close() { close(p.stop) }

var (
	defaultPool *Pool
	defaultOnce sync.Once
)

// Default returns the lazily-started process-wide pool, sized to
// GOMAXPROCS at first use. Exactly one default pool exists per process:
// parallel_pool_starts_total stays at 1 no matter how many queries run,
// which ci.sh's singleton smoke asserts.
func Default() *Pool {
	defaultOnce.Do(func() {
		defaultPool = NewPool(DefaultWorkers())
		mPoolStarts.Inc()
		mPoolWorkers.Set(float64(defaultPool.Size()))
	})
	return defaultPool
}

// pool resolves the pool a loop should advertise on: the binding worker's
// own pool first (affinity), then an explicit override, then the default.
func (o Options) pool() *Pool {
	if o.Worker != nil {
		return o.Worker.pool
	}
	if o.Pool != nil {
		return o.Pool
	}
	return Default()
}

func (p *Pool) newScope(n int, run func(w *Worker, runner int)) *scope {
	return &scope{run: run, nrun: int32(n), fin: make(chan struct{}), posted: time.Now()}
}

// advertise posts up to ads hints for s. From a pool worker the hints go
// to that worker's own deque (affinity: the owner pops LIFO and keeps
// working the shard it started, idle peers steal FIFO); from any other
// goroutine they go to the injection channel. Hints are droppable — if a
// queue is full the joiner executes the runners itself.
func (p *Pool) advertise(s *scope, from *Worker, ads int) {
	if ads > int(s.nrun) {
		ads = int(s.nrun)
	}
	if ads <= 0 {
		return
	}
	if from != nil && from.pool == p {
		from.mu.Lock()
		for i := 0; i < ads; i++ {
			from.dq = append(from.dq, s)
		}
		from.mu.Unlock()
	} else {
		posted := 0
		for i := 0; i < ads; i++ {
			select {
			case p.inject <- s:
				posted++
			default:
			}
		}
		ads = posted
	}
	for i := 0; i < ads; i++ {
		select {
		case p.wake <- struct{}{}:
		default:
			return
		}
	}
}

func (w *Worker) loop() {
	p := w.pool
	for {
		if s := w.pop(); s != nil {
			w.attach(s, false)
			continue
		}
		if s := w.steal(); s != nil {
			w.attach(s, true)
			continue
		}
		mPoolParks.Inc()
		select {
		case s := <-p.inject:
			w.attach(s, false)
		case <-p.wake:
		case <-p.stop:
			return
		}
	}
}

// pop takes the newest advertisement from the worker's own deque (LIFO:
// the most recently spawned scope is the one whose data is cache-warm).
func (w *Worker) pop() *scope {
	w.mu.Lock()
	defer w.mu.Unlock()
	if n := len(w.dq); n > 0 {
		s := w.dq[n-1]
		w.dq[n-1] = nil
		w.dq = w.dq[:n-1]
		return s
	}
	return nil
}

// steal takes the oldest advertisement from another worker's deque (FIFO:
// the oldest scope is the coarsest — most work left to share).
func (w *Worker) steal() *scope {
	ws := w.pool.workers
	for off := 1; off < len(ws); off++ {
		v := ws[(w.id+off)%len(ws)]
		v.mu.Lock()
		if n := len(v.dq); n > 0 {
			s := v.dq[0]
			copy(v.dq, v.dq[1:])
			v.dq[n-1] = nil
			v.dq = v.dq[:n-1]
			v.mu.Unlock()
			return s
		}
		v.mu.Unlock()
	}
	return nil
}

// attach claims runners from s until its cursor is exhausted. Stale
// advertisements (scope already drained) cost one atomic add. The first
// successful claim records dispatch latency and, when the hint came from
// another worker's deque, the steal.
func (w *Worker) attach(s *scope, stolen bool) {
	first := true
	for {
		i := s.claim.Add(1) - 1
		if i >= s.nrun {
			return
		}
		if first {
			first = false
			mPoolDispatch.Observe(time.Since(s.posted).Seconds())
			if stolen {
				mPoolSteals.Inc()
			}
		}
		s.exec(w, int(i))
	}
}

// FanOut runs job(w, i) for each i in [0, k) as top-level pool tasks: the
// cross-shard primitive. All K shard kernels become concurrently claimable
// runners, and each job receives the pool worker executing it (nil when a
// non-pool joiner runs it) to bind into inner loop Options — that handle
// is what routes a shard's inner grains to the worker that started the
// shard. When the effective worker count is 1 the jobs run inline,
// sequentially. Jobs observe cancellation between (not during) jobs; a job
// already claimed when the context fires is skipped. FanOut returns only
// after every claimed job has finished.
func FanOut(k int, opt Options, job func(w *Worker, i int)) {
	if k <= 0 || opt.cancelled() {
		return
	}
	c := opt.workers(k)
	if c == 1 || k == 1 {
		for i := 0; i < k && !opt.cancelled(); i++ {
			job(opt.Worker, i)
		}
		return
	}
	p := opt.pool()
	s := p.newScope(k, func(w *Worker, i int) {
		if opt.cancelled() {
			return
		}
		job(w, i)
	})
	p.advertise(s, opt.Worker, c-1)
	s.join(opt.Worker)
}
