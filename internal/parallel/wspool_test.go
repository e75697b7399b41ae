package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testPool builds a private multi-worker pool so the stealing and affinity
// paths are exercised even when GOMAXPROCS is 1 (goroutines still
// interleave on one core).
func testPool(t *testing.T, n int) *Pool {
	t.Helper()
	p := NewPool(n)
	t.Cleanup(p.Close)
	return p
}

func TestFanOutCoversEveryIndexOnce(t *testing.T) {
	p := testPool(t, 4)
	for _, k := range []int{1, 2, 3, 5, 16, 100} {
		for _, workers := range []int{1, 2, 4, 8} {
			hits := make([]int32, k)
			FanOut(k, Options{Workers: workers, Pool: p}, func(_ *Worker, i int) {
				atomic.AddInt32(&hits[i], 1)
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("k=%d workers=%d: job %d ran %d times", k, workers, i, h)
				}
			}
		}
	}
}

// TestFanOutNestedInsidePoolTask pins the deadlock-freedom invariant: a
// fan-out job running ON a pool worker spawns inner loops and fan-outs,
// with a pool far smaller than the task tree, and everything completes.
func TestFanOutNestedInsidePoolTask(t *testing.T) {
	p := testPool(t, 2)
	var total atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		FanOut(8, Options{Workers: 8, Pool: p}, func(w *Worker, i int) {
			// Inner fan-out bound to the executing worker (affinity path).
			FanOut(4, Options{Workers: 4, Worker: w, Pool: p}, func(w2 *Worker, j int) {
				opt := Options{Workers: 4, Worker: w2, Pool: p, Grain: 1}
				total.Add(MapReduce(100, opt,
					func() int64 { return 0 },
					func(acc int64, lo, hi int) int64 { return acc + int64(hi-lo) },
					func(dst, src int64) int64 { return dst + src }))
			})
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("nested fan-out deadlocked")
	}
	if got := total.Load(); got != 8*4*100 {
		t.Fatalf("nested sum = %d, want %d", got, 8*4*100)
	}
}

// TestPoolWorkersStealAcrossShards pins that idle workers actually pick up
// another participant's advertised work: K skewed "shards" fan out on a
// multi-worker pool and the runners must not all execute on the joining
// goroutine once the pool has had a chance to attach.
func TestPoolWorkersStealAcrossShards(t *testing.T) {
	p := testPool(t, 4)
	var onWorker atomic.Int64
	var release sync.WaitGroup
	release.Add(1)
	// Occupy nothing; just fan out slow jobs so the pool workers have time
	// to see the advertisements before the joiner drains every runner.
	FanOut(64, Options{Workers: 4, Pool: p}, func(w *Worker, i int) {
		if w != nil {
			onWorker.Add(1)
		}
		time.Sleep(time.Millisecond)
	})
	release.Done()
	if onWorker.Load() == 0 {
		t.Fatal("no fan-out job ever ran on a pool worker")
	}
}

func TestFanOutCancelledSkipsRemainingJobs(t *testing.T) {
	p := testPool(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	FanOut(100, Options{Workers: 4, Pool: p, Context: ctx}, func(_ *Worker, i int) {
		if ran.Add(1) == 3 {
			cancel()
		}
	})
	// At least the three jobs before cancel ran; far fewer than 100 run
	// afterwards (participants already mid-claim may slip one job each).
	if got := ran.Load(); got < 3 || got > 10 {
		t.Fatalf("ran %d jobs, want ~3 (cancelled)", got)
	}
	// The scope must be fully drained: join returned, so a second fan-out
	// on the same pool works and the pool has no stuck tasks.
	var again atomic.Int32
	FanOut(4, Options{Workers: 4, Pool: p}, func(_ *Worker, i int) { again.Add(1) })
	if again.Load() != 4 {
		t.Fatalf("pool wedged after cancelled fan-out: %d of 4 jobs ran", again.Load())
	}
}

// TestJoinDrainsWithoutPoolWorkers proves joiner self-sufficiency: even
// with a pool whose workers never run (stopped immediately), every loop
// and fan-out completes because the joining goroutine executes all
// runners itself.
func TestJoinDrainsWithoutPoolWorkers(t *testing.T) {
	p := NewPool(2)
	p.Close()
	time.Sleep(10 * time.Millisecond) // let workers observe stop
	var n atomic.Int32
	done := make(chan struct{})
	go func() {
		defer close(done)
		FanOut(8, Options{Workers: 4, Pool: p}, func(_ *Worker, i int) { n.Add(1) })
		ForOpt(1000, Options{Workers: 4, Pool: p}, func(lo, hi int) {
			n.Add(int32(hi - lo))
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("join did not drain on a dead pool")
	}
	if got := n.Load(); got != 8+1000 {
		t.Fatalf("covered %d, want %d", got, 8+1000)
	}
}

// TestDefaultPoolIsSingleton asserts the process-default pool starts once
// no matter how many loops run — the property the ci.sh smoke checks via
// the parallel_pool_starts_total counter.
func TestDefaultPoolIsSingleton(t *testing.T) {
	for i := 0; i < 8; i++ {
		ForOpt(10_000, Options{Workers: 4}, func(lo, hi int) {})
	}
	if Default() != Default() {
		t.Fatal("Default returned two pools")
	}
	if got := mPoolStarts.Value(); got != 1 {
		t.Fatalf("parallel_pool_starts_total = %d, want 1", got)
	}
}

// TestPoolNoGoroutineLeakAcrossLoops: the whole point of the persistent
// pool is that query execution stops spawning per-loop goroutines. After
// warmup, running many loops must not grow the goroutine count.
func TestPoolNoGoroutineLeakAcrossLoops(t *testing.T) {
	p := testPool(t, 4)
	opt := Options{Workers: 4, Pool: p}
	ForOpt(1000, opt, func(lo, hi int) {}) // warm
	before := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		ForOpt(1000, opt, func(lo, hi int) {})
		FanOut(5, opt, func(_ *Worker, _ int) {})
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("goroutines grew from %d to %d across 200 pooled loops", before, after)
	}
}
