package shard

import (
	"gdeltmine/internal/engine"
	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/parallel"
	"gdeltmine/internal/queries"
)

// Sharded ad-hoc queries (DESIGN.md §13): each shard plans and executes
// the spec independently through queries.AdhocVectors — so a selective
// clause pushes down on every shard exactly as on the monolith — and the
// raw vectors merge through the local→global remaps. Shards execute
// concurrently on the work-stealing pool into shard-indexed slots; the
// merge then folds the slots in ascending shard order, keeping integer
// merges bit-exact and float merges in a fixed order regardless of which
// shard finished first.

// adhocKey resolves global group ids to display keys.
func (v *View) adhocKey(group string) func(g int) string {
	s := v.s
	switch group {
	case "source":
		return func(g int) string { return s.sources.Name(int32(g)) }
	case "sourcecountry", "eventcountry":
		return func(g int) string { return gdelt.Countries[g].FIPS }
	case "quarter":
		return s.QuarterLabel
	}
	return nil
}

// adhocVectors fans the spec out over every shard concurrently and merges
// the raw vectors in ascending shard order. Each shard groups in its own id
// space — the monolith's spec, so a scan pays no remap load per row — and
// the merge maps a shard's groups to global ones: source ids through l2gSrc,
// country and quarter ids as they are (every part shares the Meta).
func (v *View) adhocVectors(spec queries.AdhocSpec) (queries.AdhocVec, error) {
	s := v.s
	k := s.K()
	vecs := make([]queries.AdhocVec, k)
	errs := make([]error, k)
	v.forEachShard(func(_ *parallel.Worker, i int, e *engine.Engine) {
		vecs[i], errs[i] = queries.AdhocVectors(e, spec, queries.AdhocGroupSpec(s.parts[i], spec.Group))
	})
	// First error by shard index, matching the sequential loop's reporting.
	for _, err := range errs {
		if err != nil {
			return queries.AdhocVec{}, err
		}
	}
	var vec queries.AdhocVec
	for i, pv := range vecs {
		vec.Count += pv.Count
		vec.Sum += pv.Sum
		n, global := max(len(pv.Counts), len(pv.Sums)), func(g int) int { return g }
		if spec.Group == "source" {
			n, global = s.sources.Len(), func(g int) int { return int(s.l2gSrc[i][g]) }
		}
		if pv.Counts != nil {
			if vec.Counts == nil {
				vec.Counts = make([]int64, n)
			}
			for g, c := range pv.Counts {
				vec.Counts[global(g)] += c
			}
		}
		if pv.Sums != nil {
			if vec.Sums == nil {
				vec.Sums = make([]float64, n)
			}
			for g, sum := range pv.Sums {
				vec.Sums[global(g)] += sum
			}
		}
	}
	return vec, nil
}

// AdhocQuery plans, executes and shapes a spec over the sharded store. The
// shaped result matches the monolith bit for bit on integer aggregates
// (counts rank the rows, and counts are exact sums).
func (v *View) AdhocQuery(spec queries.AdhocSpec) (queries.AdhocResult, error) {
	vec, err := v.adhocVectors(spec)
	if err != nil {
		return queries.AdhocResult{}, err
	}
	return queries.ShapeAdhoc(spec, vec, v.adhocKey(spec.Group)), nil
}

// AdhocExplain plans the spec on every shard without executing, and merges
// the per-shard estimates (shard-indexed, so the merged plan lists shards
// in order no matter which planned first).
func (v *View) AdhocExplain(spec queries.AdhocSpec) queries.AdhocPlan {
	plans := make([]queries.AdhocPlan, v.s.K())
	v.forEachShard(func(_ *parallel.Worker, i int, e *engine.Engine) {
		plans[i] = queries.ExplainAdhoc(e, spec)
	})
	return queries.MergeAdhocPlans(spec, plans)
}

// CountWhere counts windowed articles matching a qlang filter.
func (v *View) CountWhere(expr string) (int64, error) {
	spec, err := queries.ParseAdhocSpec(expr, "", "", 0)
	if err != nil {
		return 0, err
	}
	vec, err := v.adhocVectors(spec)
	if err != nil {
		return 0, err
	}
	return vec.Count, nil
}

// ArticlesPerQuarterWhere computes the filtered quarterly article series.
func (v *View) ArticlesPerQuarterWhere(expr string) (queries.QuarterlySeries, error) {
	spec, err := queries.ParseAdhocSpec(expr, "quarter", "", 0)
	if err != nil {
		return queries.QuarterlySeries{}, err
	}
	vec, err := v.adhocVectors(spec)
	if err != nil {
		return queries.QuarterlySeries{}, err
	}
	if vec.Counts == nil {
		vec.Counts = make([]int64, v.s.NumQuarters())
	}
	return queries.QuarterlySeries{Labels: v.quarterLabels(), Values: vec.Counts}, nil
}

// TopPublishersWhere ranks global sources by filtered article count.
func (v *View) TopPublishersWhere(expr string, k int) (ids []int32, counts []int64, err error) {
	spec, err := queries.ParseAdhocSpec(expr, "source", "", k)
	if err != nil {
		return nil, nil, err
	}
	vec, err := v.adhocVectors(spec)
	if err != nil {
		return nil, nil, err
	}
	top := engine.TopK(len(vec.Counts), k, func(i int) int64 { return vec.Counts[i] })
	for _, g := range top {
		if vec.Counts[g] == 0 {
			break
		}
		ids = append(ids, int32(g))
		counts = append(counts, vec.Counts[g])
	}
	return ids, counts, nil
}
