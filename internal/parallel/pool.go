package parallel

import (
	"sync"

	"gdeltmine/internal/obs"
)

// Pooled accumulator buffers for MapReduce partials and selection vectors.
// Scan kernels allocate one accumulator per worker per scan; on a serving
// host running thousands of queries that is steady GC churn for buffers
// with identical shapes. The pools below recycle them: a kernel Gets a
// zeroed buffer per worker, the merge step folds each source partial into
// the destination and Puts the source back, and only the final merged
// result escapes to the caller. The hit/alloc counters make the churn
// observable — allocations per scan is their ratio (exposed as a gauge by
// the engine).
var (
	mPoolGets = obs.Default.Counter("parallel_pool_gets_total",
		"pooled accumulator buffers requested by scan kernels")
	mPoolAllocs = obs.Default.Counter("parallel_pool_allocs_total",
		"pool misses that fell through to a fresh allocation")
)

// PoolAllocs returns the number of pool misses (fresh allocations) so far.
func PoolAllocs() int64 { return mPoolAllocs.Value() }

var (
	int64Pool   sync.Pool
	float64Pool sync.Pool
	int32Pool   sync.Pool
)

// GetInt64 returns a zeroed []int64 of length n, reusing pooled capacity
// when available. Pair with PutInt64 once the buffer's contents have been
// folded elsewhere.
func GetInt64(n int) []int64 {
	mPoolGets.Inc()
	if v := int64Pool.Get(); v != nil {
		s := *v.(*[]int64)
		if cap(s) >= n {
			s = s[:n]
			clear(s)
			return s
		}
	}
	mPoolAllocs.Inc()
	return make([]int64, n)
}

// PutInt64 recycles a buffer obtained from GetInt64. The caller must not
// retain any reference to it afterwards.
func PutInt64(s []int64) {
	if cap(s) == 0 {
		return
	}
	int64Pool.Put(&s)
}

// GetFloat64 returns a zeroed []float64 of length n from the pool.
func GetFloat64(n int) []float64 {
	mPoolGets.Inc()
	if v := float64Pool.Get(); v != nil {
		s := *v.(*[]float64)
		if cap(s) >= n {
			s = s[:n]
			clear(s)
			return s
		}
	}
	mPoolAllocs.Inc()
	return make([]float64, n)
}

// PutFloat64 recycles a buffer obtained from GetFloat64.
func PutFloat64(s []float64) {
	if cap(s) == 0 {
		return
	}
	float64Pool.Put(&s)
}

// GetInt32 returns a zeroed []int32 of length n from the pool. Selection
// vectors use GetInt32(0) and append into the pooled capacity.
func GetInt32(n int) []int32 {
	mPoolGets.Inc()
	if v := int32Pool.Get(); v != nil {
		s := *v.(*[]int32)
		if cap(s) >= n {
			s = s[:n]
			clear(s)
			return s
		}
	}
	mPoolAllocs.Inc()
	if n < selBlock {
		return make([]int32, n, selBlock)
	}
	return make([]int32, n)
}

// PutInt32 recycles a buffer obtained from GetInt32.
func PutInt32(s []int32) {
	if cap(s) == 0 {
		return
	}
	int32Pool.Put(&s)
}

// selBlock is the minimum capacity of a fresh selection vector: one
// default-maximum grain, so a predicate stage selecting every row of its
// grain never reallocates.
const selBlock = 8192
