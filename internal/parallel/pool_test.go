package parallel

import (
	"sync"
	"testing"
)

func TestPooledBuffersComeBackZeroed(t *testing.T) {
	a := GetInt64(64)
	for i := range a {
		a[i] = int64(i) + 1
	}
	PutInt64(a)
	b := GetInt64(32) // smaller request may reuse the dirty 64-cap buffer
	if len(b) != 32 {
		t.Fatalf("GetInt64(32) returned len %d", len(b))
	}
	for i, v := range b {
		if v != 0 {
			t.Fatalf("reused buffer not zeroed at %d: %d", i, v)
		}
	}

	f := GetFloat64(16)
	f[3] = 1.5
	PutFloat64(f)
	g := GetFloat64(16)
	for i, v := range g {
		if v != 0 {
			t.Fatalf("reused float buffer not zeroed at %d: %v", i, v)
		}
	}

	s := GetInt32(0)
	if len(s) != 0 {
		t.Fatalf("GetInt32(0) returned len %d", len(s))
	}
	s = append(s, 1, 2, 3)
	PutInt32(s)
	s2 := GetInt32(0)
	if len(s2) != 0 {
		t.Fatalf("reused selection vector has len %d", len(s2))
	}
}

func TestPoolMetricsCountMisses(t *testing.T) {
	gets0, allocs0 := mPoolGets.Value(), PoolAllocs()
	buf := GetInt64(8)
	PutInt64(buf)
	if mPoolGets.Value() <= gets0 {
		t.Error("parallel_pool_gets_total did not advance")
	}
	if PoolAllocs() < allocs0 {
		t.Error("PoolAllocs went backwards")
	}
}

func TestMergeTreeMatchesSerialFold(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4, 5, 8, 13} {
		partials := make([][]int64, workers)
		var want [4]int64
		for w := range partials {
			p := []int64{int64(w), int64(w * w), 1, -int64(w)}
			for i, v := range p {
				want[i] += v
			}
			partials[w] = p
		}
		got := MergeTree(partials, func(dst, src []int64) []int64 {
			for i, v := range src {
				dst[i] += v
			}
			return dst
		})
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("workers=%d: mergeTree[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

// TestMergeTreeConcurrencySafe hammers MapReduce with pooled partials at a
// worker count that exercises the pairwise tree, verifying the fold is
// race-free and exact (run under -race in CI).
func TestMergeTreeConcurrencySafe(t *testing.T) {
	const n = 100000
	var wg sync.WaitGroup
	for iter := 0; iter < 8; iter++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := MapReduce(n, Options{Workers: 8},
				func() []int64 { return GetInt64(4) },
				func(acc []int64, lo, hi int) []int64 {
					for i := lo; i < hi; i++ {
						acc[i%4]++
					}
					return acc
				},
				func(dst, src []int64) []int64 {
					for i, v := range src {
						dst[i] += v
					}
					PutInt64(src)
					return dst
				},
			)
			var total int64
			for _, v := range res {
				total += v
			}
			PutInt64(res)
			if total != n {
				t.Errorf("merge lost rows: %d of %d", total, n)
			}
		}()
	}
	wg.Wait()
}
