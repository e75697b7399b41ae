package parallel

import (
	"sync/atomic"
	"testing"
)

// Dynamic chunk-stealing on uniform and skewed workloads. News data is
// skewed (headline events make some row ranges far heavier than others),
// which is why loops claim grains from a shared cursor.

func uniformWork(lo, hi int, sink *atomic.Int64) {
	var s int64
	for i := lo; i < hi; i++ {
		s += int64(i % 7)
	}
	sink.Add(s)
}

func skewedWork(lo, hi int, sink *atomic.Int64) {
	var s int64
	for i := lo; i < hi; i++ {
		// The top 1% of the index space is 100x heavier.
		reps := 1
		if i%100 == 0 {
			reps = 100
		}
		for r := 0; r < reps; r++ {
			s += int64(i % 7)
		}
	}
	sink.Add(s)
}

func BenchmarkForDynamicUniform(b *testing.B) {
	var sink atomic.Int64
	for i := 0; i < b.N; i++ {
		ForOpt(1_000_000, Options{}, func(lo, hi int) { uniformWork(lo, hi, &sink) })
	}
}

func BenchmarkForDynamicSkewed(b *testing.B) {
	var sink atomic.Int64
	for i := 0; i < b.N; i++ {
		ForOpt(1_000_000, Options{}, func(lo, hi int) { skewedWork(lo, hi, &sink) })
	}
}

func BenchmarkMapReduceHistogram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		MapReduce(1_000_000, Options{},
			func() []int64 { return make([]int64, 64) },
			func(acc []int64, lo, hi int) []int64 {
				for i := lo; i < hi; i++ {
					acc[i&63]++
				}
				return acc
			},
			func(dst, src []int64) []int64 {
				for i := range dst {
					dst[i] += src[i]
				}
				return dst
			})
	}
}
