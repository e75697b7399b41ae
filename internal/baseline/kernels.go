package baseline

import (
	"gdeltmine/internal/engine"
	"gdeltmine/internal/matrix"
	"gdeltmine/internal/parallel"
)

// Reference closure kernels: the generic row-at-a-time aggregations the
// engine's typed kernels and the qlang planner replaced. Each row goes
// through a func value, so they share no column layout, remap table,
// selection vector or pooled accumulator with the code under test — only
// the engine view's window, worker count and context. The differential
// batteries pin the typed kernels and the plans against them.

// CountMentions counts mention rows in e's window satisfying pred.
func CountMentions(e *engine.Engine, pred func(row int) bool) int64 {
	wlo, whi := e.Window()
	return parallel.CountIf(whi-wlo, e.ScanOptions(), func(i int) bool { return pred(wlo + i) })
}

// GroupCount aggregates mention rows in e's window into numGroups
// counters. groupOf returns the group of a row, or a negative value to
// skip it.
func GroupCount(e *engine.Engine, numGroups int, groupOf func(row int) int) []int64 {
	wlo, whi := e.Window()
	return parallel.MapReduce(whi-wlo, e.ScanOptions(),
		func() []int64 { return make([]int64, numGroups) },
		func(acc []int64, lo, hi int) []int64 {
			for row := wlo + lo; row < wlo+hi; row++ {
				if g := groupOf(row); g >= 0 {
					acc[g]++
				}
			}
			return acc
		},
		addInt64,
	)
}

// GroupCountEvents aggregates event rows into numGroups counters; event
// scans ignore the mention window.
func GroupCountEvents(e *engine.Engine, numGroups int, groupOf func(row int) int) []int64 {
	return parallel.MapReduce(e.DB().Events.Len(), e.ScanOptions(),
		func() []int64 { return make([]int64, numGroups) },
		func(acc []int64, lo, hi int) []int64 {
			for row := lo; row < hi; row++ {
				if g := groupOf(row); g >= 0 {
					acc[g]++
				}
			}
			return acc
		},
		addInt64,
	)
}

// CrossCount aggregates mention rows in e's window into a rows×cols
// contingency matrix. keys returns the cell of a row; either coordinate
// negative skips the row.
func CrossCount(e *engine.Engine, rows, cols int, keys func(row int) (r, c int)) *matrix.Int64 {
	wlo, whi := e.Window()
	return parallel.MapReduce(whi-wlo, e.ScanOptions(),
		func() *matrix.Int64 { return matrix.NewInt64(rows, cols) },
		func(acc *matrix.Int64, lo, hi int) *matrix.Int64 {
			for row := wlo + lo; row < wlo+hi; row++ {
				if r, c := keys(row); r >= 0 && c >= 0 {
					acc.Inc(r, c)
				}
			}
			return acc
		},
		func(dst, src *matrix.Int64) *matrix.Int64 {
			addInt64(dst.Data, src.Data)
			return dst
		},
	)
}

// SumByGroup accumulates val(row) over e's window into numGroups sums.
func SumByGroup(e *engine.Engine, numGroups int, keyVal func(row int) (g int, v float64)) []float64 {
	wlo, whi := e.Window()
	return parallel.MapReduce(whi-wlo, e.ScanOptions(),
		func() []float64 { return make([]float64, numGroups) },
		func(acc []float64, lo, hi int) []float64 {
			for row := wlo + lo; row < wlo+hi; row++ {
				if g, v := keyVal(row); g >= 0 {
					acc[g] += v
				}
			}
			return acc
		},
		func(dst, src []float64) []float64 {
			for i, v := range src {
				dst[i] += v
			}
			return dst
		},
	)
}

func addInt64(dst, src []int64) []int64 {
	for i, v := range src {
		dst[i] += v
	}
	return dst
}
