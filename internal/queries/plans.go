package queries

import (
	"fmt"

	"gdeltmine/internal/engine"
	"gdeltmine/internal/gdelt"
)

// Kinds declared as plans (DESIGN.md §13). Top publishers, the quarterly
// article series and the filtered counts are all the count of the rows
// matching a where conjunction, grouped by at most one field: ad-hoc
// plans. They run through AdhocVectors like any /api/v1/query request, so
// they get its pushdown, range narrowing, fused residual fold and
// postings fast path, and the helpers below only shape the vectors.

// SlowWhere selects the articles Figure 11 counts: a publishing delay of
// more than 24 hours.
var SlowWhere = fmt.Sprintf("delay>%d", gdelt.IntervalsPerDay)

// SourceCounts is the plan top-publishers ranks — articles per source —
// parsed once: a plan without clauses cannot fail to parse.
var SourceCounts, _ = ParseAdhocSpec("", "source", "", 0)

// TopGroups returns the ids and counts of the k largest groups of a count
// vector, in descending count order with ties broken toward the lower id.
// With pad, zero-count groups fill the selection up to k; without, the
// selection ends before the first zero.
func TopGroups(counts []int64, k int, pad bool) (ids []int32, top []int64) {
	sel := engine.TopK(counts, k)
	ids, top = make([]int32, 0, len(sel)), make([]int64, 0, len(sel))
	for _, g := range sel {
		if counts[g] == 0 && !pad {
			break
		}
		ids = append(ids, int32(g))
		top = append(top, counts[g])
	}
	return ids, top
}

// QuarterSeries shapes a group=quarter count vector as the quarterly
// series, labelling quarter q with key(q).
func QuarterSeries(vec AdhocVec, key func(q int) string) QuarterlySeries {
	labels := make([]string, len(vec.Counts))
	for q := range labels {
		labels[q] = key(q)
	}
	return QuarterlySeries{Labels: labels, Values: vec.Counts}
}

// TopPublishers returns the source ids of the k most productive sources in
// e's window and their article counts, in descending order (Section
// VI-A): the top k of the group=source count plan, padded with zero-count
// sources when k exceeds the active ones.
func TopPublishers(e *engine.Engine, k int) (ids []int32, counts []int64) {
	vec, _ := AdhocVectors(e, SourceCounts) // no clause to bind: cannot fail
	return TopGroups(vec.Counts, k, true)
}
