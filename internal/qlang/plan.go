package qlang

// Static pushdown classification (DESIGN.md §13). Every clause falls into
// exactly one class, decided by the field table alone — no store needed —
// so monolith and every shard classify an expression identically:
//
//   - bitmap: an equality on a bitmap-indexed column (source,
//     sourcecountry, eventcountry). The store holds a roaring bitmap of
//     mention rows per value, so a conjunction of bitmap clauses
//     intersects to a row list before any kernel runs.
//   - range: a comparison (other than !=) on a capture-time column
//     (interval, quarter). Mentions are interval-sorted, so these restrict
//     the scan to a contiguous row range by binary search — no bitmap
//     materialization needed.
//   - residual: everything else (tone, doclen, confidence, delay,
//     articles, and any != clause). Residual clauses compile to typed
//     batch stages and run only over the rows the indexed clauses survive.

// ClauseClass is the pushdown class of one clause.
type ClauseClass int

const (
	// ClassResidual clauses evaluate as typed batch stages.
	ClassResidual ClauseClass = iota
	// ClassBitmap clauses intersect precomputed row bitmaps.
	ClassBitmap
	// ClassRange clauses narrow the scan to a contiguous row range.
	ClassRange
)

// Classify returns the pushdown class of a clause.
func Classify(c Clause) ClauseClass {
	switch c.Field {
	case "source", "sourcecountry", "eventcountry":
		if c.Op == OpEq {
			return ClassBitmap
		}
	case "interval", "quarter":
		if c.Op != OpNe {
			return ClassRange
		}
	}
	return ClassResidual
}

// Split partitions clauses into the three pushdown classes, preserving
// order within each class.
func Split(clauses []Clause) (bm, rng, residual []Clause) {
	for _, c := range clauses {
		switch Classify(c) {
		case ClassBitmap:
			bm = append(bm, c)
		case ClassRange:
			rng = append(rng, c)
		default:
			residual = append(residual, c)
		}
	}
	return bm, rng, residual
}
