package stats

import (
	"fmt"
	"math"
)

// LogHistogram buckets positive values by logarithm: bucket i covers
// [base^i, base^(i+1)). It is the natural binning for the power-law plots
// (Figures 2 and 9) where values span five decades.
type LogHistogram struct {
	Base   float64
	Counts []int64
	logb   float64
}

// NewLogHistogram returns a log histogram with the given base (>1) covering
// values up to base^n.
func NewLogHistogram(base float64, n int) *LogHistogram {
	if base <= 1 {
		panic("stats: log histogram base must exceed 1")
	}
	if n <= 0 {
		panic("stats: log histogram needs at least one bucket")
	}
	return &LogHistogram{Base: base, Counts: make([]int64, n), logb: math.Log(base)}
}

// Bucket returns the bucket index for x. Values <= 1 map to bucket 0 and
// values beyond the top bucket clamp to the last.
func (h *LogHistogram) Bucket(x float64) int {
	if x <= 1 {
		return 0
	}
	i := int(math.Log(x) / h.logb)
	if i < 0 {
		return 0
	}
	if i >= len(h.Counts) {
		return len(h.Counts) - 1
	}
	return i
}

// Add folds one observation into the histogram.
func (h *LogHistogram) Add(x float64) { h.Counts[h.Bucket(x)]++ }

// AddN folds n identical observations.
func (h *LogHistogram) AddN(x float64, n int64) { h.Counts[h.Bucket(x)] += n }

// BucketBounds returns the [lo, hi) value range of bucket i.
func (h *LogHistogram) BucketBounds(i int) (lo, hi float64) {
	return math.Pow(h.Base, float64(i)), math.Pow(h.Base, float64(i+1))
}

// CountTable is an exact value->count table over small non-negative integers
// (delays in 15-minute intervals fit: one year is 35040 intervals). It is
// the accumulator behind the delay distribution figures.
type CountTable struct {
	Counts []int64
	N      int64
}

// NewCountTable returns a table for values in [0, maxValue].
func NewCountTable(maxValue int) *CountTable {
	return &CountTable{Counts: make([]int64, maxValue+1)}
}

// Add counts one observation of value v, clamping into range.
func (t *CountTable) Add(v int64) {
	if v < 0 {
		v = 0
	}
	if v >= int64(len(t.Counts)) {
		v = int64(len(t.Counts)) - 1
	}
	t.Counts[v]++
	t.N++
}

// Merge folds another table of identical size into t.
func (t *CountTable) Merge(o *CountTable) error {
	if len(o.Counts) != len(t.Counts) {
		return fmt.Errorf("stats: merging incompatible count tables %d vs %d", len(t.Counts), len(o.Counts))
	}
	for i, c := range o.Counts {
		t.Counts[i] += c
	}
	t.N += o.N
	return nil
}

// Mean returns the mean value, or NaN when empty.
func (t *CountTable) Mean() float64 {
	if t.N == 0 {
		return math.NaN()
	}
	var sum float64
	for v, c := range t.Counts {
		sum += float64(v) * float64(c)
	}
	return sum / float64(t.N)
}

// Median returns the lower median value, or -1 when empty.
func (t *CountTable) Median() int64 {
	if t.N == 0 {
		return -1
	}
	return CountingMedian(t.Counts, t.N)
}
