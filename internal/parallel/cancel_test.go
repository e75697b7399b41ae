package parallel

import (
	"context"
	"sync/atomic"
	"testing"
)

func TestForOptCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	for _, workers := range []int{1, 4} {
		ForOpt(1_000_000, Options{Workers: workers, Context: ctx},
			func(lo, hi int) { calls.Add(1) })
	}
	if calls.Load() != 0 {
		t.Fatalf("cancelled loop ran %d grains, want 0", calls.Load())
	}
}

// TestForOptStopsEarly cancels mid-scan and checks the loop quit well short
// of the full index space: cancellation latency is bounded by one grain per
// worker, not by the remaining work.
func TestForOptStopsEarly(t *testing.T) {
	const n = 1 << 20
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"dynamic", Options{Workers: 4, Grain: 64}},
		{"single", Options{Workers: 1, Grain: 64}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			opt := tc.opt
			opt.Context = ctx
			var visited atomic.Int64
			ForOpt(n, opt, func(lo, hi int) {
				if visited.Add(int64(hi-lo)) >= 4*64 {
					cancel()
				}
			})
			got := visited.Load()
			if got >= n {
				t.Fatalf("visited all %d iterations despite cancellation", n)
			}
			// Workers may each finish the grain in flight plus claim one
			// more before observing the cancel; anything near n means the
			// check isn't happening.
			if got > n/2 {
				t.Fatalf("visited %d of %d iterations after cancel — cancellation too slow", got, n)
			}
		})
	}
}

func TestForOptWithoutContextUnchanged(t *testing.T) {
	var visited atomic.Int64
	ForOpt(10_000, Options{Workers: 4}, func(lo, hi int) {
		visited.Add(int64(hi - lo))
	})
	if visited.Load() != 10_000 {
		t.Fatalf("visited %d, want 10000", visited.Load())
	}
}

func TestMapReduceCancelledReturnsPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got := MapReduce(1_000_000, Options{Workers: 4, Context: ctx},
		func() int64 { return 0 },
		func(acc int64, lo, hi int) int64 { return acc + int64(hi-lo) },
		func(dst, src int64) int64 { return dst + src })
	if got != 0 {
		t.Fatalf("pre-cancelled MapReduce processed %d iterations, want 0", got)
	}

	// Mid-scan cancel: result is a partial sum, strictly less than n.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	var seen atomic.Int64
	const n = 1 << 20
	got = MapReduce(n, Options{Workers: 4, Grain: 64, Context: ctx2},
		func() int64 { return 0 },
		func(acc int64, lo, hi int) int64 {
			if seen.Add(int64(hi-lo)) >= 512 {
				cancel2()
			}
			return acc + int64(hi-lo)
		},
		func(dst, src int64) int64 { return dst + src })
	if got >= n {
		t.Fatalf("MapReduce summed all %d iterations despite cancellation", n)
	}
	if got == 0 {
		t.Fatal("MapReduce returned zero partial; grains before cancel should count")
	}
}
