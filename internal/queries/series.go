package queries

import (
	"gdeltmine/internal/engine"
	"gdeltmine/internal/parallel"
)

// QuarterlySeries bundles a per-quarter integer series with its labels.
type QuarterlySeries struct {
	Labels []string
	Values []int64
}

func quarterLabels(e *engine.Engine) []string {
	db := e.DB()
	labels := make([]string, db.NumQuarters())
	for q := range labels {
		labels[q] = db.QuarterLabel(q)
	}
	return labels
}

// EventsPerQuarter computes Figure 4: the number of events observed (by
// event time) in each quarter.
func EventsPerQuarter(e *engine.Engine) QuarterlySeries {
	db := e.DB()
	// Events never observed (zero articles) are filtered by the predicate
	// stage; the survivors group by the quarter of their event interval.
	vals := e.GroupCountEventsCol(db.NumQuarters(), db.Events.Interval, db.QuarterLUT(),
		engine.PredGT(db.Events.NumArticles, 0))
	return QuarterlySeries{Labels: quarterLabels(e), Values: vals}
}

// ActiveSourcesPerQuarter computes Figure 3: the number of sources that
// published at least one article in each quarter. Each worker walks a range
// of sources and marks activity from its postings.
func ActiveSourcesPerQuarter(e *engine.Engine) QuarterlySeries {
	db := e.DB()
	nq := db.NumQuarters()
	vals := parallel.MapReduce(db.Sources.Len(), e.ScanOptions(),
		func() []int64 { return make([]int64, nq) },
		func(acc []int64, lo, hi int) []int64 {
			seen := make([]bool, nq)
			for s := lo; s < hi; s++ {
				rows := db.SourceMentions(int32(s))
				if len(rows) == 0 {
					continue
				}
				for q := range seen {
					seen[q] = false
				}
				for _, r := range rows {
					seen[db.QuarterOfInterval(db.Mentions.Interval[r])] = true
				}
				for q, ok := range seen {
					if ok {
						acc[q]++
					}
				}
			}
			return acc
		},
		func(dst, src []int64) []int64 {
			for i, v := range src {
				dst[i] += v
			}
			return dst
		},
	)
	return QuarterlySeries{Labels: quarterLabels(e), Values: vals}
}

// PublisherSeries is Figure 6: per-quarter article counts for a set of
// publishers, one row per publisher.
type PublisherSeries struct {
	Labels  []string
	Sources []int32
	Names   []string
	Totals  []int64
	Values  [][]int64 // Values[p][q]
}

// TopPublisherSeries computes Figure 6 for the k most productive publishers.
func TopPublisherSeries(e *engine.Engine, k int) PublisherSeries {
	db := e.DB()
	ids, totals := TopPublishers(e, k)
	out := PublisherSeries{
		Labels:  quarterLabels(e),
		Sources: ids,
		Totals:  totals,
	}
	// Postings-pruned: instead of scanning the whole window asking "is this
	// row by a top-k publisher?", concatenate the k publishers' postings
	// (clipped to the window) and cross-count only those rows — O(Σ postings
	// of the k sources) instead of O(window).
	rank := make([]int32, db.Sources.Len())
	for i := range rank {
		rank[i] = -1
	}
	var rows []int32
	for p, s := range ids {
		out.Names = append(out.Names, db.Sources.Name(s))
		rank[s] = int32(p)
		rows = append(rows, e.ClipRows(db.SourceMentions(s))...)
	}
	nq := db.NumQuarters()
	grid := e.CrossCountRows(len(ids), nq, rows, e.WindowSize(),
		db.Mentions.Source, rank, db.Mentions.Interval, db.QuarterLUT())
	out.Values = make([][]int64, len(ids))
	for p := range ids {
		out.Values[p] = grid.Row(p)
	}
	return out
}
