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
// shard finished first. The registry kinds declared as plans (top
// publishers, the article series, the filtered counts) run through
// AdhocVectors too: it is their only sharded execution.

// AdhocKey resolves global group ids to display keys.
func (v *View) AdhocKey(group string) func(g int) string {
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

// AdhocVectors fans the spec out over every shard concurrently and merges
// the raw vectors in ascending shard order. Each shard groups in its own id
// space — the monolith's spec, so a scan pays no remap load per row — and
// the merge maps a shard's groups to global ones: source ids through l2gSrc,
// country and quarter ids as they are (every part shares the Meta). A
// grouped answer carries one count per global group id even when no shard
// contributes, as the monolith's does.
func (v *View) AdhocVectors(spec queries.AdhocSpec) (queries.AdhocVec, error) {
	s := v.s
	k := s.K()
	vecs := make([]queries.AdhocVec, k)
	errs := make([]error, k)
	v.forEachShard(func(_ *parallel.Worker, i int, e *engine.Engine) {
		vecs[i], errs[i] = queries.AdhocVectors(e, spec)
	})
	// First error by shard index, matching the sequential loop's reporting.
	for _, err := range errs {
		if err != nil {
			return queries.AdhocVec{}, err
		}
	}
	var vec queries.AdhocVec
	n := 0
	switch spec.Group {
	case "source":
		n = s.sources.Len()
	case "sourcecountry", "eventcountry":
		n = len(gdelt.Countries)
	case "quarter":
		n = s.NumQuarters()
	}
	if spec.Group != "" {
		vec.Counts = make([]int64, n)
	}
	for i, pv := range vecs {
		vec.Count += pv.Count
		vec.Sum += pv.Sum
		var remap []int32 // nil: the part's group ids are global
		if spec.Group == "source" {
			remap = s.l2gSrc[i]
		}
		for g, c := range pv.Counts {
			if remap != nil {
				g = int(remap[g])
			}
			vec.Counts[g] += c
		}
		if pv.Sums != nil {
			if vec.Sums == nil {
				vec.Sums = make([]float64, n)
			}
			for g, sum := range pv.Sums {
				if remap != nil {
					g = int(remap[g])
				}
				vec.Sums[g] += sum
			}
		}
	}
	return vec, nil
}

// AdhocQuery plans, executes and shapes a spec over the sharded store. The
// shaped result matches the monolith bit for bit on integer aggregates
// (counts rank the rows, and counts are exact sums).
func (v *View) AdhocQuery(spec queries.AdhocSpec) (queries.AdhocResult, error) {
	vec, err := v.AdhocVectors(spec)
	if err != nil {
		return queries.AdhocResult{}, err
	}
	return queries.ShapeAdhoc(spec, vec, v.AdhocKey(spec.Group)), nil
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
