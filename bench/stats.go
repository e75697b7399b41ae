package main

import (
	"math"
	"math/rand"
	"sort"

	"gdeltmine/internal/stats"
)

// timing is the summary every latency metric reports: the median, the
// highest standard percentile that still has at least ten samples beyond
// it (so the figure is not one outlier's story), and the sample count.
// p99 and max are carried for the printed report only; nothing gates on
// them.
type timing struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	Hi    float64 `json:"hi"`
	HiPct float64 `json:"hi_pct"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// median is stats.Median, except that no samples read 0 rather than NaN
// (a window without a single seal still has to encode as JSON).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return stats.Median(v)
}

func summarize(v []float64) timing {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	t := timing{N: len(s)}
	if len(s) == 0 {
		return t
	}
	t.P50 = stats.Quantile(s, 0.50)
	t.P90 = stats.Quantile(s, 0.90)
	t.P99 = stats.Quantile(s, 0.99)
	t.Max = s[len(s)-1]
	t.Hi, t.HiPct = t.P50, 50
	for _, p := range []float64{75, 90, 95, 99, 99.9} {
		if float64(len(s))*(1-p/100) >= 10 {
			t.Hi, t.HiPct = stats.Quantile(s, p/100), p
		}
	}
	return t
}

// quartiles mirrors Python's statistics.quantiles(v, n=4) (the default
// "exclusive" method), because the acceptance rule for a run set is
// stated in those terms: spread = (Q3 - Q1) / median.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// zipf draws ranks 0..n-1 with P(rank i) proportional to 1/(i+1)^s by
// inverting the cumulative weights. math/rand's Zipf needs s > 1; the
// churn workload wants s = 0.8.
type zipf struct {
	cum []float64
}

func newZipf(n int, s float64) *zipf {
	z := &zipf{cum: make([]float64, n)}
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		z.cum[i] = total
	}
	for i := range z.cum {
		z.cum[i] /= total
	}
	return z
}

func (z *zipf) draw(rng *rand.Rand) int {
	i := sort.SearchFloat64s(z.cum, rng.Float64())
	if i >= len(z.cum) {
		i = len(z.cum) - 1
	}
	return i
}
