package baseline

import (
	"fmt"
	"testing"

	"gdeltmine/internal/engine"
	"gdeltmine/internal/queries"
	"gdeltmine/internal/registry"
	"gdeltmine/internal/shard"
	"gdeltmine/internal/store"
)

// Selection differential battery: co-reporting and follow-reporting run one
// plan — event-bitmap algebra for CoReport, the contributing-events fold for
// FollowReport — on the engine and on every sharded layout. Each must equal
// the closure-scan reference (CoReportScan / FollowReportScan at workers=1)
// on panels spanning the selectivities the retired rows plan used to own
// (top-1, top-2) up to dense top-16, the served k range's top-64 and
// top-512 (the pairKParam clamp; every source of a world smaller than
// that), a mid-spectrum panel, and a panel that repeats a source id (a
// shadowed slot that must stay all-zero): 2 seeded worlds, workers {1,4}.
// Integers exact, floats 1e-9 (workers=1 bit-equal).
//
// Every point runs once under each name of the retired plan modes. All four
// now resolve to the same plan; the repeated executions re-draw the pooled
// accumulators, so a buffer that comes back dirty fails here.
var retiredSelectionPlans = []string{"auto", "rows", "events", "scan"}

// selectionPanels returns the source selections the battery runs on.
func selectionPanels(ranked []int32) map[string][]int32 {
	top := func(k int) []int32 { return ranked[:min(k, len(ranked))] }
	panels := map[string][]int32{
		"top1":   top(1),
		"top2":   top(2),
		"top16":  top(16),
		"top64":  top(64),
		"top512": top(512),
		"mid16":  top(16),
	}
	if base := len(ranked) / 8; base+16 <= len(ranked) {
		panels["mid16"] = ranked[base : base+16]
	}
	if len(ranked) >= 4 {
		// ranked[2] first appears at slot 0 and again at slot 3: slot 0 is
		// shadowed by the last occurrence.
		panels["shadowed"] = []int32{ranked[2], ranked[0], ranked[1], ranked[2], ranked[3]}
	}
	return panels
}

// selectionRefs computes the closure-scan references for a panel.
func selectionRefs(t *testing.T, db *store.DB, ids []int32) (*queries.CoReporting, *queries.FollowReporting) {
	t.Helper()
	ref := engine.New(db).WithWorkers(1)
	co, err := queries.CoReportScan(ref, ids)
	if err != nil {
		t.Fatal(err)
	}
	return co, queries.FollowReportScan(ref, ids)
}

// checkSelection runs co and fo once under every retired plan name and
// compares each answer with the references.
func checkSelection(t *testing.T, prefix string, w int, refCo *queries.CoReporting, refFo *queries.FollowReporting,
	co func() (*queries.CoReporting, error), fo func() *queries.FollowReporting) {
	for _, name := range retiredSelectionPlans {
		t.Run(prefix+"/"+name+"/coreport", func(t *testing.T) {
			got, err := co()
			if err != nil {
				t.Fatal(err)
			}
			eqSeries(t, "pair", got.Pair.Data, refCo.Pair.Data)
			eqSeries(t, "counts", got.EventCounts, refCo.EventCounts)
			eqFloats(t, "jaccard", got.Jaccard.Data, refCo.Jaccard.Data, w)
		})
		t.Run(prefix+"/"+name+"/follow", func(t *testing.T) {
			got := fo()
			eqSeries(t, "N", got.N.Data, refFo.N.Data)
			eqSeries(t, "articles", got.Articles, refFo.Articles)
			eqFloats(t, "F", got.F.Data, refFo.F.Data, w)
		})
	}
}

func TestPlannerDifferentialMonolith(t *testing.T) {
	for seedIdx, db := range kernelWorlds(t) {
		ranked := rankSources(db)
		for name, ids := range selectionPanels(ranked) {
			refCo, refFo := selectionRefs(t, db, ids)
			for _, w := range differentialWorkers {
				e := engine.New(db).WithWorkers(w)
				checkSelection(t, fmt.Sprintf("world%d/%s/w%d", seedIdx, name, w), w, refCo, refFo,
					func() (*queries.CoReporting, error) { return queries.CoReport(e, ids) },
					func() *queries.FollowReporting { return queries.FollowReport(e, ids) })
			}
		}
	}
}

func TestPlannerDifferentialSharded(t *testing.T) {
	for seedIdx, db := range kernelWorlds(t) {
		ranked := rankSources(db)
		layouts := map[string]*shard.DB{}
		single, err := shard.Single(db)
		if err != nil {
			t.Fatal(err)
		}
		layouts["Single"] = single
		for _, k := range []int{1, 4, 5} {
			sdb, err := shard.Split(db, k)
			if err != nil {
				t.Fatalf("Split(%d): %v", k, err)
			}
			layouts[fmt.Sprintf("K%d", k)] = sdb
		}
		for name, ids := range selectionPanels(ranked) {
			refCo, refFo := selectionRefs(t, db, ids)
			for layout, sdb := range layouts {
				for _, w := range differentialWorkers {
					v := sdb.View().WithWorkers(w)
					checkSelection(t, fmt.Sprintf("world%d/%s/%s/w%d", seedIdx, layout, name, w), w, refCo, refFo,
						func() (*queries.CoReporting, error) { return v.CoReport(ids) },
						func() *queries.FollowReporting { return v.FollowReport(ids) })
				}
			}
		}
	}
}

// TestPlannerParamThroughRegistry pins the retired plan parameter's fate: a
// request that still carries plan= — any value, even one that used to be a
// 400 — derives the same engine and view as one without it, so coreport and
// follow serialize identically whatever it says.
func TestPlannerParamThroughRegistry(t *testing.T) {
	db := kernelWorlds(t)[0]
	sdb, err := shard.Split(db, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"coreport", "follow"} {
		d := registry.MustLookup(kind)
		var want any
		for _, plan := range []string{"", "scan", "rows", "events", "auto", "bogus"} {
			get := func(name string) []string {
				if name == "plan" && plan != "" {
					return []string{plan}
				}
				return nil
			}
			e, err := registry.DeriveEngine(engine.New(db).WithKind(kind), get)
			if err != nil {
				t.Fatalf("%s plan=%q: %v", kind, plan, err)
			}
			v, err := registry.DeriveView(sdb.View().WithKind(kind), get)
			if err != nil {
				t.Fatalf("%s plan=%q: %v", kind, plan, err)
			}
			p, err := d.ParseParams(get)
			if err != nil {
				t.Fatal(err)
			}
			mono, err := d.Run(e, p)
			if err != nil {
				t.Fatal(err)
			}
			sharded, err := d.RunSharded(v, p)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = jsonTree(t, mono)
			}
			if err := eqTree(kind, jsonTree(t, mono), want); err != nil {
				t.Errorf("%s plan=%q: %v", kind, plan, err)
			}
			if err := eqTree(kind, jsonTree(t, sharded), want); err != nil {
				t.Errorf("%s plan=%q sharded: %v", kind, plan, err)
			}
		}
	}
}
