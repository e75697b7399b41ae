package queries

import (
	"sync"

	"gdeltmine/internal/bitmap"
	"gdeltmine/internal/engine"
	"gdeltmine/internal/matrix"
	"gdeltmine/internal/parallel"
)

// CoReporting is the Section VI-B co-reporting result over a selected set
// of sources: the symmetric Jaccard matrix c_ij = e_ij / (e_i + e_j - e_ij).
type CoReporting struct {
	Sources []int32
	Names   []string
	// EventCounts[i] = e_i, events reported by source i.
	EventCounts []int64
	// Pair[i][j] = e_ij, events reported by both.
	Pair *matrix.Int64
	// Jaccard is the co-reporting matrix (diagonal zero).
	Jaccard *matrix.Dense
}

// slotLUT builds the source→selection-slot remap column: slot[s] is the
// index of s in sources, or -1 when unselected. Duplicate ids resolve to the
// last occurrence, matching the maps the closure versions used to build.
func slotLUT(nSources int, sources []int32) []int32 {
	slot := make([]int32, nSources)
	for i := range slot {
		slot[i] = -1
	}
	for i, s := range sources {
		slot[s] = int32(i)
	}
	return slot
}

// activeSlots returns the panel positions that survive duplicate
// resolution: slot[sources[i]] == i exactly when position i is the last
// occurrence of its source. Shadowed positions are inert — the scan never
// marks them present — so the bitmap-algebra kernels must compute them as
// zeros, which skipping them here achieves.
func activeSlots(sources []int32, slot []int32) []int32 {
	act := make([]int32, 0, len(sources))
	for i, s := range sources {
		if slot[s] == int32(i) {
			act = append(act, int32(i))
		}
	}
	return act
}

// contributingEvents returns the event rows that can contribute to
// follow-reporting among the selection, ascending: an event matters only
// when it holds at least two selected mention rows, i.e. when two distinct
// selected sources co-occur on it (AtLeastTwo over the selection's event
// bitmaps) or one selected source mentions it twice (the store's repeat-
// event bitmaps). Events outside the set hold at most one selected row,
// which sets a firstSeen mark and increments nothing — so restricting the
// scan to this set is exact, not an approximation.
func contributingEvents(e *engine.Engine, sources []int32, slot []int32) []int32 {
	db := e.DB()
	act := activeSlots(sources, slot)
	evBMs := make([]*bitmap.Bitmap, len(act))
	repBMs := make([]*bitmap.Bitmap, 0, len(act)+1)
	for i, a := range act {
		s := sources[a]
		evBMs[i] = db.SourceEventBitmap(s)
		repBMs = append(repBMs, db.SourceRepeatEventBitmap(s))
	}
	repBMs = append(repBMs, bitmap.AtLeastTwo(evBMs))
	u := bitmap.UnionAll(repBMs)
	return u.AppendRows(make([]int32, 0, u.Cardinality()))
}

// coPartial is a worker-local accumulator for co-reporting scans.
type coPartial struct {
	pair   *matrix.Int64
	counts []int64
}

func newCoPartial(n int) *coPartial {
	return &coPartial{
		pair:   &matrix.Int64{Rows: n, Cols: n, Data: parallel.GetInt64(n * n)},
		counts: parallel.GetInt64(n),
	}
}

func mergeCoPartials(dst, src *coPartial) *coPartial {
	if err := dst.pair.AddMatrix(src.pair); err != nil {
		panic(err)
	}
	for i, v := range src.counts {
		dst.counts[i] += v
	}
	parallel.PutInt64(src.pair.Data)
	parallel.PutInt64(src.counts)
	src.pair.Data, src.counts = nil, nil
	return dst
}

// coReportRows folds one event's mention sources srcs into acc: mark the
// selected sources present, bump their event counts, and count every
// unordered present pair in both triangles.
func coReportRows(acc *coPartial, srcs []int32, slot []int32, present []int32, mark []bool) {
	present = present[:0]
	for _, s := range srcs {
		if i := slot[s]; i >= 0 && !mark[i] {
			mark[i] = true
			present = append(present, i)
		}
	}
	for _, i := range present {
		mark[i] = false
		acc.counts[i]++
	}
	for a := 0; a < len(present); a++ {
		for b := a + 1; b < len(present); b++ {
			i, j := present[a], present[b]
			acc.pair.Inc(int(i), int(j))
			acc.pair.Inc(int(j), int(i))
		}
	}
}

func finishCoReport(e *engine.Engine, sources []int32, res *coPartial) (*CoReporting, error) {
	names := make([]string, 0, len(sources))
	for _, s := range sources {
		names = append(names, e.DB().Sources.Name(s))
	}
	return FinishCoReporting(sources, names, res.counts, res.pair)
}

// FinishCoReporting assembles the CoReporting result from the raw pair and
// singleton counts. Display names are caller-supplied: the monolithic path
// resolves them in the store's dictionary, the sharded path in the global
// one.
func FinishCoReporting(sources []int32, names []string, counts []int64, pair *matrix.Int64) (*CoReporting, error) {
	jac, err := matrix.JaccardFromPairCounts(pair, counts)
	if err != nil {
		return nil, err
	}
	return &CoReporting{
		Sources:     sources,
		Names:       names,
		EventCounts: counts,
		Pair:        pair,
		Jaccard:     jac,
	}, nil
}

// CoReport computes co-reporting among the selected sources by event-bitmap
// algebra: the scan's pair count is, by definition, the number of events
// where both sources appear — exactly the intersection cardinality of their
// event bitmaps — and its singleton count is the event-bitmap cardinality.
// No mention row is touched at all: the k×k result costs O(k² × containers)
// register work, which on dense top-k panels is an order of magnitude under
// the scan it replaces. Shadowed duplicate panel positions stay all-zero,
// matching the scan's last-occurrence slot resolution.
func CoReport(e *engine.Engine, sources []int32) (*CoReporting, error) {
	db := e.DB()
	n := len(sources)
	slot := slotLUT(db.Sources.Len(), sources)
	act := activeSlots(sources, slot)
	bms := make([]*bitmap.Bitmap, len(act))
	res := newCoPartial(n)
	for ai, i := range act {
		bms[ai] = db.SourceEventBitmap(sources[i])
		res.counts[i] = bms[ai].Cardinality()
	}
	cards := bitmap.PairwiseIntersectCards(bms)
	for ai, i := range act {
		for bj, j := range act[ai+1:] {
			c := cards[ai][ai+1+bj]
			res.pair.Set(int(i), int(j), c)
			res.pair.Set(int(j), int(i), c)
		}
	}
	return finishCoReport(e, sources, res)
}

// CoReportScan is the full-scan closure reference of CoReport: a parallel
// pass over every event and every one of its mentions, with per-worker pair
// matrices. It is never served; it is the reference the differential
// harness pins CoReport against, and the baseline the kernel benchmark
// measures pruning from.
func CoReportScan(e *engine.Engine, sources []int32) (*CoReporting, error) {
	db := e.DB()
	n := len(sources)
	slot := slotLUT(db.Sources.Len(), sources)
	res := parallel.MapReduce(db.Events.Len(), e.ScanOptions(),
		func() *coPartial { return newCoPartial(n) },
		func(acc *coPartial, lo, hi int) *coPartial {
			present := make([]int32, 0, 16)
			mark := make([]bool, n)
			for ev := lo; ev < hi; ev++ {
				coReportRows(acc, db.EventMentionSources(int32(ev)), slot, present, mark)
			}
			return acc
		},
		mergeCoPartials,
	)
	return finishCoReport(e, sources, res)
}

// SliceStats describes a time-sliced co-reporting computation.
type SliceStats struct {
	// Slices is the number of time spans (calendar quarters).
	Slices int
	// PieceNNZ is the nonzero count of each per-slice sparse pair matrix.
	PieceNNZ []int
	// AssembledNNZ is the nonzero count of the assembled global matrix.
	AssembledNNZ int
}

// CoReportSliced computes the same result as CoReport via the strategy
// Section VI-B proposes for source populations too large for one dense
// matrix: build a compressed sparse pair matrix per limited time span (one
// per calendar quarter, with each event assigned to the quarter it
// happened in), then assemble the pieces into the global matrix. Assigning
// each event to exactly one slice makes the assembly exact, not an
// approximation.
func CoReportSliced(e *engine.Engine, sources []int32) (*CoReporting, *SliceStats, error) {
	db := e.DB()
	n := len(sources)
	slot := slotLUT(db.Sources.Len(), sources)
	nq := db.NumQuarters()
	pieces := make([]*matrix.CSR, nq)
	counts := make([]int64, n)
	var mu sync.Mutex

	// Bucket events by the quarter they happened in, once.
	evByQuarter := make([][]int32, nq)
	for ev := 0; ev < db.Events.Len(); ev++ {
		q := db.QuarterOfInterval(db.Events.Interval[ev])
		evByQuarter[q] = append(evByQuarter[q], int32(ev))
	}

	parallel.ForOpt(nq, scanOptGrain1(e), func(qlo, qhi int) {
		localCounts := make([]int64, n)
		present := make([]int32, 0, 16)
		mark := make([]bool, n)
		for q := qlo; q < qhi; q++ {
			// Accumulate the slice densely (within one limited time span
			// the active selection is small), then compress — exactly the
			// paper's "compressed into a sparse format and assembled".
			slice := &coPartial{pair: matrix.NewInt64(n, n), counts: localCounts}
			for _, ev := range evByQuarter[q] {
				coReportRows(slice, db.EventMentionSources(ev), slot, present, mark)
			}
			pieces[q] = matrix.FromDense(slice.pair.ToDense(), 0)
		}
		mu.Lock()
		for i, v := range localCounts {
			counts[i] += v
		}
		mu.Unlock()
	})

	global, err := matrix.AssembleCSR(pieces)
	if err != nil {
		return nil, nil, err
	}
	stats := &SliceStats{Slices: nq, AssembledNNZ: global.NNZ()}
	for _, p := range pieces {
		stats.PieceNNZ = append(stats.PieceNNZ, p.NNZ())
	}
	dense := global.ToDense()
	pair := matrix.NewInt64(n, n)
	for i := range dense.Data {
		pair.Data[i] = int64(dense.Data[i])
	}
	out, err := finishCoReport(e, sources, &coPartial{pair: pair, counts: counts})
	return out, stats, err
}

// FollowReporting is the Table IV / Figure 7 result: f_ij = n_ij / n_j where
// n_ij counts articles by source j on events that source i published on at a
// strictly earlier capture interval, and n_j is the total number of articles
// published by j. The diagonal counts self-follow-ups (repeat articles by
// the same source on an event it already covered).
type FollowReporting struct {
	Sources  []int32
	Names    []string
	Articles []int64 // n_j over all events
	N        *matrix.Int64
	F        *matrix.Dense
	// ColSums[j] = sum_i f_ij, the fraction of j's articles that follow any
	// of the selected publishers (the "Sum" row of Table IV).
	ColSums []float64
}

// followReportRows folds one event's mentions — their sources srcs and
// capture intervals ivs, ascending by interval, so a single forward pass
// sees leaders before followers — into acc. Unselected mentions contribute
// nothing.
func followReportRows(acc *matrix.Int64, srcs, ivs []int32, slot []int32, firstSeen []int32, touched []int32) []int32 {
	for x, s := range srcs {
		j := slot[s]
		if j < 0 {
			continue
		}
		t := ivs[x]
		// Every selected source first seen strictly earlier is a leader of
		// this article.
		for _, i := range touched {
			if firstSeen[i] < t {
				acc.Inc(int(i), int(j))
			}
		}
		if firstSeen[j] < 0 {
			firstSeen[j] = t
			touched = append(touched, j)
		}
	}
	for _, i := range touched {
		firstSeen[i] = -1
	}
	return touched[:0]
}

func finishFollowReport(e *engine.Engine, sources []int32, articles []int64, nm *matrix.Int64) *FollowReporting {
	names := make([]string, 0, len(sources))
	for _, s := range sources {
		names = append(names, e.DB().Sources.Name(s))
	}
	return FinishFollowReporting(sources, names, articles, nm)
}

// FinishFollowReporting assembles the FollowReporting result from the raw
// follow matrix and per-source article totals, with caller-supplied display
// names (see FinishCoReporting).
func FinishFollowReporting(sources []int32, names []string, articles []int64, nm *matrix.Int64) *FollowReporting {
	n := len(sources)
	f := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if articles[j] > 0 {
				f.Set(i, j, float64(nm.At(i, j))/float64(articles[j]))
			}
		}
	}
	return &FollowReporting{
		Sources:  sources,
		Names:    names,
		Articles: articles,
		N:        nm,
		F:        f,
		ColSums:  f.ColSums(),
	}
}

func selectedArticles(e *engine.Engine, sources []int32) []int64 {
	articles := make([]int64, len(sources))
	for i, s := range sources {
		articles[i] = int64(len(e.DB().SourceMentions(s)))
	}
	return articles
}

// FollowReport computes follow-reporting among the selected sources over
// the full mention lists of only the events that can contribute — at least
// two selected rows (contributingEvents) — so the ascending-interval leader
// pass sees exactly the rows whose contribution is nonzero.
func FollowReport(e *engine.Engine, sources []int32) *FollowReporting {
	db := e.DB()
	n := len(sources)
	slot := slotLUT(db.Sources.Len(), sources)
	evs := contributingEvents(e, sources, slot)
	nm := engine.ScanRows(e, evs, db.Events.Len(),
		func() *matrix.Int64 { return &matrix.Int64{Rows: n, Cols: n, Data: parallel.GetInt64(n * n)} },
		func(acc *matrix.Int64, events []int32) *matrix.Int64 {
			firstSeen := make([]int32, n)
			for i := range firstSeen {
				firstSeen[i] = -1
			}
			touched := make([]int32, 0, 16)
			for _, ev := range events {
				touched = followReportRows(acc, db.EventMentionSources(ev), db.EventMentionIntervals(ev), slot, firstSeen, touched)
			}
			return acc
		},
		mergeReleaseMatrixSerial,
	)
	return finishFollowReport(e, sources, selectedArticles(e, sources), nm)
}

// FollowReportScan is the full-scan closure reference of FollowReport, never
// served: the reference for the differential harness and the kernel
// benchmark's pruning baseline.
func FollowReportScan(e *engine.Engine, sources []int32) *FollowReporting {
	db := e.DB()
	n := len(sources)
	slot := slotLUT(db.Sources.Len(), sources)
	nm := parallel.MapReduce(db.Events.Len(), e.ScanOptions(),
		func() *matrix.Int64 { return &matrix.Int64{Rows: n, Cols: n, Data: parallel.GetInt64(n * n)} },
		func(acc *matrix.Int64, lo, hi int) *matrix.Int64 {
			firstSeen := make([]int32, n)
			for i := range firstSeen {
				firstSeen[i] = -1
			}
			touched := make([]int32, 0, 16)
			for ev := lo; ev < hi; ev++ {
				touched = followReportRows(acc, db.EventMentionSources(int32(ev)), db.EventMentionIntervals(int32(ev)), slot, firstSeen, touched)
			}
			return acc
		},
		mergeReleaseMatrixSerial,
	)
	return finishFollowReport(e, sources, selectedArticles(e, sources), nm)
}

// mergeReleaseMatrixSerial folds src into dst and recycles src's pooled
// backing buffer (selection matrices are k×k for small k, so the serial add
// is already cheap).
func mergeReleaseMatrixSerial(dst, src *matrix.Int64) *matrix.Int64 {
	if err := dst.AddMatrix(src); err != nil {
		panic(err)
	}
	parallel.PutInt64(src.Data)
	src.Data = nil
	return dst
}
