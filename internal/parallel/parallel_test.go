package parallel

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversAllIndicesExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100, 10000} {
		seen := make([]int32, n)
		ForOpt(n, Options{}, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestForStaticCoversAllIndices(t *testing.T) {
	for _, n := range []int{1, 3, 64, 1000} {
		for _, w := range []int{1, 2, 3, 7, 16, 100} {
			seen := make([]int32, n)
			ForOpt(n, Options{Workers: w, Static: true}, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d w=%d index %d visited %d times", n, w, i, c)
				}
			}
		}
	}
}

func TestForZeroAndNegative(t *testing.T) {
	called := false
	ForOpt(0, Options{}, func(lo, hi int) { called = true })
	ForOpt(-5, Options{}, func(lo, hi int) { called = true })
	if called {
		t.Fatal("body called for empty range")
	}
}

func TestForSingleWorkerRunsInline(t *testing.T) {
	var calls int
	ForOpt(10, Options{Workers: 1}, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 10 {
			t.Fatalf("expected whole range, got [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("expected exactly one inline call, got %d", calls)
	}
}

func TestForOptWorkersMatchesSerialSum(t *testing.T) {
	const n = 5000
	want := int64(n) * (n - 1) / 2
	for _, w := range []int{1, 2, 4, 8, 64} {
		var got atomic.Int64
		ForOpt(n, Options{Workers: w}, func(lo, hi int) {
			var s int64
			for i := lo; i < hi; i++ {
				s += int64(i)
			}
			got.Add(s)
		})
		if got.Load() != want {
			t.Fatalf("workers=%d sum=%d want %d", w, got.Load(), want)
		}
	}
}

func TestGrainClamping(t *testing.T) {
	o := Options{}
	if g := o.grain(10, 4); g < 1 {
		t.Fatalf("grain %d < 1", g)
	}
	if g := o.grain(10_000_000, 1); g != 8192 {
		t.Fatalf("grain %d, want clamp at 8192", g)
	}
	o = Options{Grain: 17}
	if g := o.grain(1000, 4); g != 17 {
		t.Fatalf("explicit grain ignored: %d", g)
	}
}

// TestGrainSmallInputsFanOut pins the small-shard fix: the automatic grain
// never exceeds the ideal per-worker share, so a loop shorter than the old
// 64-iteration floor still splits across every worker instead of running
// as one oversized task while the others idle.
func TestGrainSmallInputsFanOut(t *testing.T) {
	o := Options{}
	for _, tc := range []struct{ n, workers, want int }{
		{100, 4, 25}, // below the floor: cap at ceil(n/workers)
		{10, 4, 3},   // tiny loop still yields 4 claimable grains
		{1, 8, 1},    // never below 1
		{256, 4, 64}, // floor engages exactly at the per-worker share
		{100_000, 4, 6250},
		{10_000_000, 4, 8192}, // ceiling unchanged
	} {
		if g := o.grain(tc.n, tc.workers); g != tc.want {
			t.Errorf("grain(%d, %d) = %d, want %d", tc.n, tc.workers, g, tc.want)
		}
	}
	// Every worker can claim at least one grain whenever n >= workers.
	for _, n := range []int{4, 7, 63, 64, 65, 1000} {
		for _, w := range []int{2, 4, 8} {
			if n < w {
				continue
			}
			g := o.grain(n, w)
			if chunks := (n + g - 1) / g; chunks < w {
				t.Errorf("grain(%d, %d) = %d yields %d chunks for %d workers", n, w, g, chunks, w)
			}
		}
	}
}

func TestWorkersClamping(t *testing.T) {
	o := Options{Workers: 100}
	if w := o.workers(3); w != 3 {
		t.Fatalf("workers should clamp to n: got %d", w)
	}
	o = Options{Workers: -1}
	if w := o.workers(1000); w != DefaultWorkers() {
		t.Fatalf("negative workers should default: got %d", w)
	}
}

func TestMapReduceSum(t *testing.T) {
	const n = 12345
	got := MapReduce(n, Options{Workers: 7},
		func() int64 { return 0 },
		func(acc int64, lo, hi int) int64 {
			for i := lo; i < hi; i++ {
				acc += int64(i)
			}
			return acc
		},
		func(dst, src int64) int64 { return dst + src },
	)
	want := int64(n) * (n - 1) / 2
	if got != want {
		t.Fatalf("got %d want %d", got, want)
	}
}

func TestMapReduceEmpty(t *testing.T) {
	got := MapReduce(0, Options{},
		func() int { return 41 },
		func(acc, lo, hi int) int { return acc + 1 },
		func(dst, src int) int { return dst + src },
	)
	if got != 41 {
		t.Fatalf("empty reduce should return fresh partial, got %d", got)
	}
}

func TestMapReduceSliceAccumulators(t *testing.T) {
	// Histogram accumulation: each worker owns a private histogram.
	const n, buckets = 100000, 13
	hist := MapReduce(n, Options{Workers: 5},
		func() []int64 { return make([]int64, buckets) },
		func(acc []int64, lo, hi int) []int64 {
			for i := lo; i < hi; i++ {
				acc[i%buckets]++
			}
			return acc
		},
		func(dst, src []int64) []int64 {
			for i := range dst {
				dst[i] += src[i]
			}
			return dst
		},
	)
	var total int64
	for _, c := range hist {
		total += c
	}
	if total != n {
		t.Fatalf("histogram total %d want %d", total, n)
	}
}

func TestMapReducePropertyMatchesSerial(t *testing.T) {
	f := func(vals []int16, workers uint8) bool {
		var want int64
		for _, v := range vals {
			want += int64(v)
		}
		got := MapReduce(len(vals), Options{Workers: int(workers%16) + 1},
			func() int64 { return 0 },
			func(acc int64, lo, hi int) int64 {
				for i := lo; i < hi; i++ {
					acc += int64(vals[i])
				}
				return acc
			},
			func(dst, src int64) int64 { return dst + src })
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCursorExhaustion(t *testing.T) {
	cur := newCursor()
	covered := 0
	for {
		lo, hi := cur.next(7, 100)
		if lo >= hi {
			break
		}
		covered += hi - lo
	}
	if covered != 100 {
		t.Fatalf("covered %d want 100", covered)
	}
	// Further calls stay exhausted.
	if lo, hi := cur.next(7, 100); lo < hi {
		t.Fatalf("cursor not exhausted: [%d,%d)", lo, hi)
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatal("DefaultWorkers < 1")
	}
}
