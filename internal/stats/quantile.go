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

// P2Quantile is the P² streaming quantile estimator (Jain & Chlamtac 1985):
// a five-marker approximation that uses O(1) memory per tracked quantile,
// for streams too large to sort. No query or stream path calls it: the
// live stream answers delay questions exactly from its append log.
type P2Quantile struct {
	q       float64
	n       int64
	heights [5]float64
	pos     [5]float64
	desired [5]float64
	inc     [5]float64
	primed  bool
	initBuf []float64
}

// NewP2Quantile returns an estimator for the q-quantile, 0 < q < 1.
func NewP2Quantile(q float64) *P2Quantile {
	p := &P2Quantile{q: q}
	p.inc = [5]float64{0, q / 2, q, (1 + q) / 2, 1}
	return p
}

// Add folds one observation into the estimator.
func (p *P2Quantile) Add(x float64) {
	p.n++
	if !p.primed {
		p.initBuf = append(p.initBuf, x)
		if len(p.initBuf) == 5 {
			sort.Float64s(p.initBuf)
			copy(p.heights[:], p.initBuf)
			for i := range p.pos {
				p.pos[i] = float64(i + 1)
				p.desired[i] = 1 + p.inc[i]*4
			}
			p.primed = true
			p.initBuf = nil
		}
		return
	}
	// Locate cell k such that heights[k] <= x < heights[k+1].
	var k int
	switch {
	case x < p.heights[0]:
		p.heights[0] = x
		k = 0
	case x >= p.heights[4]:
		p.heights[4] = x
		k = 3
	default:
		for k = 0; k < 4; k++ {
			if x < p.heights[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		p.pos[i]++
	}
	for i := range p.desired {
		p.desired[i] += p.inc[i]
	}
	// Adjust interior markers.
	for i := 1; i <= 3; i++ {
		d := p.desired[i] - p.pos[i]
		if (d >= 1 && p.pos[i+1]-p.pos[i] > 1) || (d <= -1 && p.pos[i-1]-p.pos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1.0
			}
			h := p.parabolic(i, sign)
			if p.heights[i-1] < h && h < p.heights[i+1] {
				p.heights[i] = h
			} else {
				p.heights[i] = p.linear(i, sign)
			}
			p.pos[i] += sign
		}
	}
}

func (p *P2Quantile) parabolic(i int, d float64) float64 {
	return p.heights[i] + d/(p.pos[i+1]-p.pos[i-1])*
		((p.pos[i]-p.pos[i-1]+d)*(p.heights[i+1]-p.heights[i])/(p.pos[i+1]-p.pos[i])+
			(p.pos[i+1]-p.pos[i]-d)*(p.heights[i]-p.heights[i-1])/(p.pos[i]-p.pos[i-1]))
}

func (p *P2Quantile) linear(i int, d float64) float64 {
	di := int(d)
	return p.heights[i] + d*(p.heights[i+di]-p.heights[i])/(p.pos[i+di]-p.pos[i])
}

// Value returns the current quantile estimate. For fewer than five
// observations it falls back to the exact quantile of the buffered values.
func (p *P2Quantile) Value() float64 {
	if !p.primed {
		if len(p.initBuf) == 0 {
			return math.NaN()
		}
		tmp := make([]float64, len(p.initBuf))
		copy(tmp, p.initBuf)
		sort.Float64s(tmp)
		return Quantile(tmp, p.q)
	}
	return p.heights[2]
}

// N returns the number of observations folded in so far.
func (p *P2Quantile) N() int64 { return p.n }
