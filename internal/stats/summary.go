// Package stats provides the statistical substrate for the analyses: an
// integer running summary, exact quantiles and medians, log-binned
// histograms and integer count tables, and the log-log power-law fit for the
// event-size distribution (Figure 2). Quarter labels come from the store's
// calendar (store.DB.QuarterLabel), not from this package.
package stats

import "math"

// IntSummary accumulates count, sum, min and max of a stream of int64
// observations, with exact integer sums. The zero value is ready to use.
type IntSummary struct {
	N   int64
	Sum int64
	Min int64
	Max int64
}

// Add folds one observation into the summary.
func (s *IntSummary) Add(x int64) {
	if s.N == 0 {
		s.Min, s.Max = x, x
	} else {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.N++
	s.Sum += x
}

// Mean returns the arithmetic mean, or NaN for an empty summary.
func (s *IntSummary) Mean() float64 {
	if s.N == 0 {
		return math.NaN()
	}
	return float64(s.Sum) / float64(s.N)
}
