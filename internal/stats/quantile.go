package stats

import (
	"math"
	"sort"
)

// Quantile returns the q-quantile (0 <= q <= 1) of sorted using linear
// interpolation between closest ranks (the "R-7" rule used by most
// statistics packages). sorted must be ascending. It returns NaN for an
// empty slice.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Median returns the median of an unsorted slice without modifying it.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	tmp := make([]float64, len(xs))
	copy(tmp, xs)
	sort.Float64s(tmp)
	return Quantile(tmp, 0.5)
}

// MedianInt64 returns the lower median of an unsorted int64 slice without
// modifying it. For even n it returns element n/2-1 of the sorted order,
// matching the integer "15-minute interval" medians reported in Table VIII.
func MedianInt64(xs []int64) int64 {
	if len(xs) == 0 {
		return 0
	}
	tmp := make([]int64, len(xs))
	copy(tmp, xs)
	sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
	if len(tmp)%2 == 1 {
		return tmp[len(tmp)/2]
	}
	return tmp[len(tmp)/2-1]
}

// CountingMedian computes the lower median of a distribution given as counts
// per integer value: counts[v] observations of value v. Total observations
// must be supplied (callers usually track it alongside the counts). It runs
// in O(len(counts)) and is how per-source delay medians are computed without
// materializing one slice per source.
func CountingMedian(counts []int64, total int64) int64 {
	if total <= 0 {
		return 0
	}
	// Lower median rank, 1-based: ceil(total/2).
	rank := (total + 1) / 2
	var cum int64
	for v, c := range counts {
		cum += c
		if cum >= rank {
			return int64(v)
		}
	}
	return int64(len(counts) - 1)
}
