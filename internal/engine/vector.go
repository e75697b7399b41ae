// Vectorized scan kernels and postings-pruned execution (DESIGN.md §9).
//
// A closure kernel dispatches through a func value per row — a call the
// compiler cannot inline, sitting between the worker loop and the column
// data — so closure kernels survive only as references in
// internal/baseline. The typed kernels below take the int32 column slices
// themselves (plus optional int32 remap lookup tables) and iterate them
// directly inside the worker loop, with bounds checks hoisted to one slice
// header per grain. Predicates run as a
// separate stage that materializes pooled selection vectors — row-index
// batches — which the aggregation stage then consumes, the classic
// filter→aggregate decomposition of vectorized engines.
//
// The ScanRows family executes over explicit row lists instead of the full
// window. Queries restricted to a handful of sources (co-/follow-reporting
// over top-k publishers) feed it the union of those sources' postings,
// turning O(window) scans into O(Σ postings of the k sources); the scan
// metrics record rows actually touched plus a scan_rows_pruned_total
// counter so the win shows up in /metrics.
package engine

import (
	"math"
	"slices"
	"time"

	"gdeltmine/internal/matrix"
	"gdeltmine/internal/parallel"
)

// ColPred is a typed predicate over an int32 column: a row passes when
// Min <= Col[row] <= Max. The zero value (nil Col) passes every row, so
// kernels taking an optional predicate accept ColPred{} for "no filter".
type ColPred struct {
	Col      []int32
	Min, Max int32
}

// PredGT selects rows whose column value is strictly greater than v.
func PredGT(col []int32, v int32) ColPred {
	return ColPred{Col: col, Min: v + 1, Max: math.MaxInt32}
}

// empty reports whether the predicate is the match-everything zero value.
func (p ColPred) empty() bool { return p.Col == nil }

// sel appends the rows of [lo, hi) that pass the predicate to out — the
// selection-vector stage. out is typically a pooled buffer (parallel.GetInt32).
func (p ColPred) sel(lo, hi int, out []int32) []int32 {
	seg := p.Col[lo:hi]
	for i, v := range seg {
		if v >= p.Min && v <= p.Max {
			out = append(out, int32(lo+i))
		}
	}
	return out
}

// The accumulator helpers below draw worker partials from the shared
// parallel pools and release each folded source back to them, so repeated
// scans cycle the same buffers; only the final merged result escapes.

// newInt64 returns a partial allocator for n-element int64 accumulators.
func newInt64(n int) func() []int64 {
	return func() []int64 { return parallel.GetInt64(n) }
}

// mergeReleaseInt64 folds src into dst and recycles src's buffer.
func mergeReleaseInt64(dst, src []int64) []int64 {
	for i, v := range src {
		dst[i] += v
	}
	parallel.PutInt64(src)
	return dst
}

// copyOutInt64 copies a pooled result into a caller-owned slice and
// recycles the buffer.
func copyOutInt64(res []int64) []int64 {
	out := append([]int64(nil), res...)
	parallel.PutInt64(res)
	return out
}

// groupCountSeg is the shared inner loop: count col values (optionally
// remapped) into acc. Groups outside [0, len(acc)) are skipped via one
// unsigned compare, which also rejects negative remap entries.
func groupCountSeg(acc []int64, seg []int32, remap []int32) {
	n := uint32(len(acc))
	if remap == nil {
		for _, g := range seg {
			if uint32(g) < n {
				acc[g]++
			}
		}
		return
	}
	for _, v := range seg {
		if g := remap[v]; uint32(g) < n {
			acc[g]++
		}
	}
}

// GroupCountCol aggregates the mention window into numGroups counters
// where a row's group is remap[col[row]] (or col[row] itself when remap is
// nil). Out-of-range and negative groups are skipped.
func (e *Engine) GroupCountCol(numGroups int, col []int32, remap []int32) []int64 {
	wlo, whi := e.mentionWindow()
	defer e.observeScan(whi-wlo, time.Now())
	res := parallel.MapReduce(whi-wlo, e.opt(),
		newInt64(numGroups),
		func(acc []int64, lo, hi int) []int64 {
			groupCountSeg(acc, col[wlo+lo:wlo+hi], remap)
			return acc
		},
		mergeReleaseInt64,
	)
	return copyOutInt64(res)
}

// GroupCountEventsCol is GroupCountCol over the event table, with an
// optional predicate (ColPred{} scans every event). Event scans ignore the
// mention window.
func (e *Engine) GroupCountEventsCol(numGroups int, col, remap []int32, pred ColPred) []int64 {
	ne := e.db.Events.Len()
	defer e.observeScan(ne, time.Now())
	res := parallel.MapReduce(ne, e.opt(),
		newInt64(numGroups),
		func(acc []int64, lo, hi int) []int64 {
			if pred.empty() {
				groupCountSeg(acc, col[lo:hi], remap)
				return acc
			}
			sel := pred.sel(lo, hi, parallel.GetInt32(0))
			n := uint32(numGroups)
			if remap == nil {
				for _, r := range sel {
					if g := col[r]; uint32(g) < n {
						acc[g]++
					}
				}
			} else {
				for _, r := range sel {
					if g := remap[col[r]]; uint32(g) < n {
						acc[g]++
					}
				}
			}
			parallel.PutInt32(sel)
			return acc
		},
		mergeReleaseInt64,
	)
	return copyOutInt64(res)
}

// crossCountSeg accumulates one contiguous row segment into a contingency
// matrix: cell (rmap[rcol[row]], cmap[ccol[row]]), nil remaps meaning the
// column holds the coordinate directly. Rows with either coordinate out of
// range are skipped (signed -1 markers become huge after the unsigned
// conversion). The nil checks are hoisted out of the row loop — four
// specialized loops — so the hot path is two loads, two unsigned compares
// and one indexed increment per row.
func crossCountSeg(acc *matrix.Int64, lo, hi int, rcol, rmap, ccol, cmap []int32) {
	nr, nc := uint32(acc.Rows), uint32(acc.Cols)
	cols := acc.Cols
	data := acc.Data
	rseg, cseg := rcol[lo:hi], ccol[lo:hi]
	cseg = cseg[:len(rseg)] // bounds-check hint: cseg[i] is in range below
	switch {
	case rmap != nil && cmap != nil:
		// 4-way unroll: the remap loads are independent across rows, so
		// unrolling lets the cache misses overlap instead of serializing.
		i, n := 0, len(rseg)
		for ; i+4 <= n; i += 4 {
			r0, c0 := rmap[rseg[i]], cmap[cseg[i]]
			r1, c1 := rmap[rseg[i+1]], cmap[cseg[i+1]]
			r2, c2 := rmap[rseg[i+2]], cmap[cseg[i+2]]
			r3, c3 := rmap[rseg[i+3]], cmap[cseg[i+3]]
			if uint32(r0) < nr && uint32(c0) < nc {
				data[int(r0)*cols+int(c0)]++
			}
			if uint32(r1) < nr && uint32(c1) < nc {
				data[int(r1)*cols+int(c1)]++
			}
			if uint32(r2) < nr && uint32(c2) < nc {
				data[int(r2)*cols+int(c2)]++
			}
			if uint32(r3) < nr && uint32(c3) < nc {
				data[int(r3)*cols+int(c3)]++
			}
		}
		for ; i < n; i++ {
			r, c := rmap[rseg[i]], cmap[cseg[i]]
			if uint32(r) < nr && uint32(c) < nc {
				data[int(r)*cols+int(c)]++
			}
		}
	case rmap != nil:
		for i, rv := range rseg {
			r, c := rmap[rv], cseg[i]
			if uint32(r) < nr && uint32(c) < nc {
				data[int(r)*cols+int(c)]++
			}
		}
	case cmap != nil:
		for i, rv := range rseg {
			c := cmap[cseg[i]]
			if uint32(rv) < nr && uint32(c) < nc {
				data[int(rv)*cols+int(c)]++
			}
		}
	default:
		for i, rv := range rseg {
			cv := cseg[i]
			if uint32(rv) < nr && uint32(cv) < nc {
				data[int(rv)*cols+int(cv)]++
			}
		}
	}
}

// newPooledInt64Matrix returns a partial allocator for rows×cols matrices
// backed by pooled buffers.
func newPooledInt64Matrix(rows, cols int) func() *matrix.Int64 {
	return func() *matrix.Int64 {
		return &matrix.Int64{Rows: rows, Cols: cols, Data: parallel.GetInt64(rows * cols)}
	}
}

// parallelMergeMin is the matrix size (elements) past which partial-matrix
// merges go through the pairwise-parallel AddMatrixParallel path.
const parallelMergeMin = 1 << 16

// mergeReleaseMatrix folds src into dst (in parallel for large matrices)
// and recycles src's pooled backing buffer.
func mergeReleaseMatrix(dst, src *matrix.Int64) *matrix.Int64 {
	var err error
	if len(dst.Data) >= parallelMergeMin {
		err = dst.AddMatrixParallel(src, 4)
	} else {
		err = dst.AddMatrix(src)
	}
	if err != nil {
		panic(err) // identical shapes by construction
	}
	parallel.PutInt64(src.Data)
	src.Data = nil
	return dst
}

// CrossCountRemap builds a rows×cols contingency matrix over the mention
// window where a row's cell is (rmap[rcol[row]], cmap[ccol[row]]); a nil
// remap reads the column directly. This is the kernel behind the aggregated
// country query's cross-reporting pass (Section VI-G); the store's int32
// country columns serve as its remaps directly.
func (e *Engine) CrossCountRemap(rows, cols int, rcol, rmap, ccol, cmap []int32) *matrix.Int64 {
	wlo, whi := e.mentionWindow()
	defer e.observeScan(whi-wlo, time.Now())
	return parallel.MapReduce(whi-wlo, e.opt(),
		newPooledInt64Matrix(rows, cols),
		func(acc *matrix.Int64, lo, hi int) *matrix.Int64 {
			crossCountSeg(acc, wlo+lo, wlo+hi, rcol, rmap, ccol, cmap)
			return acc
		},
		mergeReleaseMatrix,
	)
}

// ClipRows narrows an ascending row list (a postings list — ascending by
// interval and therefore by row id, since mentions are interval-sorted) to
// the engine's mention window, by binary search on the row ids.
func (e *Engine) ClipRows(rows []int32) []int32 {
	wlo, whi := e.mentionWindow()
	if wlo == 0 && whi == e.db.Mentions.Len() {
		return rows
	}
	lo, _ := slices.BinarySearch(rows, int32(wlo))
	hi, _ := slices.BinarySearch(rows[lo:], int32(whi))
	return rows[lo : lo+hi]
}

// ScanRows runs a MapReduce-style aggregation over an explicit row list —
// the postings-pruned analogue of the windowed kernels. rows is any slice
// of row indices (mention rows or event rows; the body knows which table
// it addresses), and domain is the size of the scan the list replaces
// (window size or table length): the metrics record len(rows) as touched
// and domain−len(rows) as pruned. body receives contiguous sub-slices of
// rows and must be safe to run concurrently.
func ScanRows[A any](e *Engine, rows []int32, domain int,
	newPartial func() A, body func(acc A, rows []int32) A, merge func(dst, src A) A) A {
	defer e.observeScanPruned(len(rows), domain, time.Now())
	return parallel.MapReduce(len(rows), e.opt(), newPartial,
		func(acc A, lo, hi int) A { return body(acc, rows[lo:hi]) },
		merge,
	)
}

// ScanWindow is the window twin of ScanRows: a MapReduce-style aggregation
// over the mention window, with body receiving absolute row bounds
// [lo, hi) of one grain. It records one scan of the window's rows.
func ScanWindow[A any](e *Engine,
	newPartial func() A, body func(acc A, lo, hi int) A, merge func(dst, src A) A) A {
	wlo, whi := e.mentionWindow()
	defer e.observeScan(whi-wlo, time.Now())
	return parallel.MapReduce(whi-wlo, e.opt(), newPartial,
		func(acc A, lo, hi int) A { return body(acc, wlo+lo, wlo+hi) },
		merge,
	)
}

// GroupCountRows is GroupCountCol over an explicit row list: counts
// remap[col[r]] for every r in rows. domain sizes the pruning metric.
func (e *Engine) GroupCountRows(numGroups int, rows []int32, domain int, col, remap []int32) []int64 {
	defer e.observeScanPruned(len(rows), domain, time.Now())
	res := parallel.MapReduce(len(rows), e.opt(),
		newInt64(numGroups),
		func(acc []int64, lo, hi int) []int64 {
			n := uint32(numGroups)
			seg := rows[lo:hi]
			if remap == nil {
				for _, r := range seg {
					if g := col[r]; uint32(g) < n {
						acc[g]++
					}
				}
			} else {
				for _, r := range seg {
					if g := remap[col[r]]; uint32(g) < n {
						acc[g]++
					}
				}
			}
			return acc
		},
		mergeReleaseInt64,
	)
	return copyOutInt64(res)
}

// CrossCountRows is CrossCountRemap over an explicit row list: cell
// (rmap[rcol[r]], cmap[ccol[r]]) for every r in rows. domain sizes the
// pruning metric.
func (e *Engine) CrossCountRows(nr, nc int, rows []int32, domain int, rcol, rmap, ccol, cmap []int32) *matrix.Int64 {
	defer e.observeScanPruned(len(rows), domain, time.Now())
	unr, unc := uint32(nr), uint32(nc)
	return parallel.MapReduce(len(rows), e.opt(),
		newPooledInt64Matrix(nr, nc),
		func(acc *matrix.Int64, lo, hi int) *matrix.Int64 {
			data := acc.Data
			if rmap != nil && cmap != nil {
				for _, r := range rows[lo:hi] {
					rv, cv := rmap[rcol[r]], cmap[ccol[r]]
					if uint32(rv) < unr && uint32(cv) < unc {
						data[int(rv)*nc+int(cv)]++
					}
				}
				return acc
			}
			for _, r := range rows[lo:hi] {
				rv, cv := rcol[r], ccol[r]
				if rmap != nil {
					rv = rmap[rv]
				}
				if cmap != nil {
					cv = cmap[cv]
				}
				if uint32(rv) < unr && uint32(cv) < unc {
					data[int(rv)*nc+int(cv)]++
				}
			}
			return acc
		},
		mergeReleaseMatrix,
	)
}
