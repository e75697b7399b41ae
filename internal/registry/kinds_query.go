package registry

import (
	"gdeltmine/internal/engine"
	"gdeltmine/internal/queries"
	"gdeltmine/internal/shard"
)

// The generic ad-hoc kind (DESIGN.md §13): /api/v1/query composes a qlang
// where-conjunction with a group-by field and an aggregate, executed
// through the bitmap pushdown planner. explain=1 returns the resolved plan
// — pushdown clauses, fallback clauses, estimated selectivity, kernel —
// without executing. The plan depends only on the snapshot and the params,
// and explain is a schema parameter, so explain answers are cached under
// their own keys like every other answer.

func adhocSpec(p Params) (queries.AdhocSpec, error) {
	spec, err := queries.ParseAdhocSpec(p.Str("where"), p.Str("group"), p.Str("agg"), p.Int("k"))
	if err != nil {
		return queries.AdhocSpec{}, BadParam(err)
	}
	return spec, nil
}

func init() {
	register(&Descriptor{
		Kind: "query",
		Help: "ad-hoc query: filter, group and aggregate articles",
		Params: []ParamSpec{
			whereParam(),
			groupParam(),
			aggParam(),
			{Name: "k", Type: IntParam, Default: "20", Help: "grouped result row limit"},
			explainParam(),
		},
		Run: func(e *engine.Engine, p Params) (any, error) {
			explain, err := parseExplain(p)
			if err != nil {
				return nil, err
			}
			spec, err := adhocSpec(p)
			if err != nil {
				return nil, err
			}
			if explain {
				return queries.ExplainAdhoc(e, spec), nil
			}
			res, err := queries.AdhocQuery(e, spec)
			if err != nil {
				return nil, BadParam(err)
			}
			return res, nil
		},
		RunSharded: func(v *shard.View, p Params) (any, error) {
			explain, err := parseExplain(p)
			if err != nil {
				return nil, err
			}
			spec, err := adhocSpec(p)
			if err != nil {
				return nil, err
			}
			if explain {
				return v.AdhocExplain(spec), nil
			}
			res, err := v.AdhocQuery(spec)
			if err != nil {
				return nil, BadParam(err)
			}
			return res, nil
		},
	})
}
