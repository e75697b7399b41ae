package baseline

import (
	"fmt"
	"testing"

	"gdeltmine/internal/engine"
	"gdeltmine/internal/queries"
	"gdeltmine/internal/registry"
	"gdeltmine/internal/shard"
)

// Planner differential battery: the cost-based planner (DESIGN.md §12) may
// pick any physical plan for a selection query — bitmap-pruned rows,
// candidate events, or the closure scan — so every plan, forced through
// WithPlan, must produce results identical to the closure reference on
// every eligible kind: monolithic and sharded, 2 seeded worlds, workers
// {1,4}, K ∈ {1,4} shards. Integers exact, floats 1e-9 (workers=1
// bit-equal). Cache executors are nil throughout: the plan parameter is
// excluded from cache keys precisely because results are plan-invariant,
// which is the property pinned here.

var plannerModes = []engine.PlanMode{
	engine.PlanAuto, engine.PlanRows, engine.PlanEvents, engine.PlanScan,
}

// plannerPanels returns the source selections the battery runs on: a dense
// top-16 panel (high selectivity, auto resolves to events) and a sparse
// mid-spectrum panel (auto resolves to rows), so both auto branches and
// both forced paths see real work.
func plannerPanels(ranked []int32) map[string][]int32 {
	panels := map[string][]int32{
		"top16": ranked[:min(16, len(ranked))],
	}
	base := len(ranked) / 8
	if base+16 <= len(ranked) {
		panels["mid16"] = ranked[base : base+16]
	} else {
		panels["mid16"] = ranked[:min(16, len(ranked))]
	}
	return panels
}

func TestPlannerDifferentialMonolith(t *testing.T) {
	for seedIdx, db := range kernelWorlds(t) {
		ranked, _ := queries.TopPublishers(engine.New(db), db.Sources.Len())
		for name, ids := range plannerPanels(ranked) {
			for _, w := range differentialWorkers {
				base := engine.New(db).WithWorkers(w)
				wantCo, err := queries.CoReportScan(base, ids)
				if err != nil {
					t.Fatal(err)
				}
				wantFo := queries.FollowReportScan(base, ids)
				for _, mode := range plannerModes {
					e := base.WithPlan(mode)
					prefix := fmt.Sprintf("world%d/%s/w%d/%s", seedIdx, name, w, mode)
					t.Run(prefix+"/coreport", func(t *testing.T) {
						got, err := queries.CoReport(e, ids)
						if err != nil {
							t.Fatal(err)
						}
						eqSeries(t, "pair", got.Pair.Data, wantCo.Pair.Data)
						eqSeries(t, "counts", got.EventCounts, wantCo.EventCounts)
						eqFloats(t, "jaccard", got.Jaccard.Data, wantCo.Jaccard.Data, w)
					})
					t.Run(prefix+"/follow", func(t *testing.T) {
						got := queries.FollowReport(e, ids)
						eqSeries(t, "N", got.N.Data, wantFo.N.Data)
						eqSeries(t, "articles", got.Articles, wantFo.Articles)
						eqFloats(t, "F", got.F.Data, wantFo.F.Data, w)
					})
				}
			}
		}
	}
}

func TestPlannerDifferentialSharded(t *testing.T) {
	for seedIdx, db := range kernelWorlds(t) {
		ranked, _ := queries.TopPublishers(engine.New(db), db.Sources.Len())
		for _, k := range []int{1, 4} {
			sdb, err := shard.Split(db, k)
			if err != nil {
				t.Fatalf("Split(%d): %v", k, err)
			}
			for name, ids := range plannerPanels(ranked) {
				refCo, err := queries.CoReportScan(engine.New(db).WithWorkers(1), ids)
				if err != nil {
					t.Fatal(err)
				}
				refFo := queries.FollowReportScan(engine.New(db).WithWorkers(1), ids)
				for _, w := range differentialWorkers {
					for _, mode := range plannerModes {
						v := sdb.View().WithWorkers(w).WithPlan(mode)
						prefix := fmt.Sprintf("world%d/K%d/%s/w%d/%s", seedIdx, k, name, w, mode)
						t.Run(prefix+"/coreport", func(t *testing.T) {
							got, err := v.CoReport(ids)
							if err != nil {
								t.Fatal(err)
							}
							eqSeries(t, "pair", got.Pair.Data, refCo.Pair.Data)
							eqSeries(t, "counts", got.EventCounts, refCo.EventCounts)
							eqFloats(t, "jaccard", got.Jaccard.Data, refCo.Jaccard.Data, w)
						})
						t.Run(prefix+"/follow", func(t *testing.T) {
							got := v.FollowReport(ids)
							eqSeries(t, "N", got.N.Data, refFo.N.Data)
							eqSeries(t, "articles", got.Articles, refFo.Articles)
							eqFloats(t, "F", got.F.Data, refFo.F.Data, w)
						})
					}
				}
			}
		}
	}
}

// TestPlannerParamThroughRegistry pins the plan parameter's plumbing: for
// the eligible kinds, executions forced to each plan through the registry's
// common "plan" parameter must serialize to identical JSON (1e-9 floats),
// and an invalid value must be a parameter error. Run is called directly —
// the plan never reaches cache keys.
func TestPlannerParamThroughRegistry(t *testing.T) {
	db := kernelWorlds(t)[0]
	for _, kind := range []string{"coreport", "follow"} {
		d, ok := registry.Lookup(kind)
		if !ok {
			t.Fatalf("kind %q not registered", kind)
		}
		trees := map[string]any{}
		for _, plan := range []string{"scan", "rows", "events", "auto"} {
			get := func(name string) []string {
				if name == registry.ParamPlan {
					return []string{plan}
				}
				return nil
			}
			e, err := registry.DeriveEngine(engine.New(db).WithKind(kind), get)
			if err != nil {
				t.Fatal(err)
			}
			p, err := d.ParseParams(get)
			if err != nil {
				t.Fatal(err)
			}
			v, err := d.Run(e, p)
			if err != nil {
				t.Fatal(err)
			}
			trees[plan] = jsonTree(t, v)
		}
		for _, plan := range []string{"rows", "events", "auto"} {
			if err := eqTree(kind+"/"+plan, trees[plan], trees["scan"]); err != nil {
				t.Errorf("%s: plan %s disagrees with scan: %v", kind, plan, err)
			}
		}
	}
	if _, err := registry.DeriveEngine(engine.New(db),
		func(name string) []string {
			if name == registry.ParamPlan {
				return []string{"bogus"}
			}
			return nil
		}); err == nil || !registry.IsBadParam(err) {
		t.Fatalf("bogus plan value: got %v, want parameter error", err)
	}
}
