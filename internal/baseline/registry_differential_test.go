package baseline

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"gdeltmine/internal/convert"
	"gdeltmine/internal/engine"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/qcache"
	"gdeltmine/internal/queries"
	"gdeltmine/internal/registry"
	"gdeltmine/internal/shard"
)

// floatTol is the relative tolerance for float comparisons across runs:
// parallel MapReduce merges floats in worker order, so two executions of
// the same query may differ in the last bits.
const floatTol = 1e-9

// jsonTree marshals v and decodes it back into a generic tree, the shape
// both executions are compared in — exactly what an API client would see.
func jsonTree(t *testing.T, v any) any {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var tree any
	if err := json.Unmarshal(data, &tree); err != nil {
		t.Fatal(err)
	}
	return tree
}

// eqTree compares two decoded JSON trees, exact for everything except
// numbers, which compare within floatTol relative tolerance.
func eqTree(path string, a, b any) error {
	switch av := a.(type) {
	case map[string]any:
		bv, ok := b.(map[string]any)
		if !ok || len(av) != len(bv) {
			return fmt.Errorf("%s: object shape differs", path)
		}
		for k, v := range av {
			if err := eqTree(path+"."+k, v, bv[k]); err != nil {
				return err
			}
		}
		return nil
	case []any:
		bv, ok := b.([]any)
		if !ok || len(av) != len(bv) {
			return fmt.Errorf("%s: array length differs", path)
		}
		for i := range av {
			if err := eqTree(fmt.Sprintf("%s[%d]", path, i), av[i], bv[i]); err != nil {
				return err
			}
		}
		return nil
	case float64:
		bv, ok := b.(float64)
		if !ok {
			return fmt.Errorf("%s: number vs %T", path, b)
		}
		diff := math.Abs(av - bv)
		scale := math.Max(math.Abs(av), math.Abs(bv))
		if diff > floatTol*math.Max(scale, 1) {
			return fmt.Errorf("%s: %v vs %v", path, av, bv)
		}
		return nil
	default:
		if a != b {
			return fmt.Errorf("%s: %v vs %v", path, a, b)
		}
		return nil
	}
}

// TestRegistryDifferentialCachedVsUncached runs EVERY registered query kind
// three ways — uncached, cached-cold, cached-warm — and requires all three
// to agree. The uncached run is the reference; the cached-cold run proves
// the cache inserts exactly what was computed; the cached-warm run proves a
// hit serves the identical result. Worker counts differ between the cached
// and uncached executors so reduction-order bugs can't hide behind an
// identical schedule. ci.sh runs this as the registry differential gate.
func TestRegistryDifferentialCachedVsUncached(t *testing.T) {
	c, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	res, err := convert.FromCorpus(c)
	if err != nil {
		t.Fatal(err)
	}
	db := res.DB
	sdb, err := shard.Single(db)
	if err != nil {
		t.Fatal(err)
	}

	cached := &registry.Executor{Cache: qcache.New(0)}
	var uncached *registry.Executor

	// theme-trends needs a real theme name; take the most frequent one.
	var themeArg string
	if db.GKG != nil {
		tc, err := queries.TopThemes(engine.New(db), 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(tc) > 0 {
			themeArg = tc[0].Theme
		}
	}

	for _, d := range registry.All() {
		d := d
		t.Run(d.Kind, func(t *testing.T) {
			if d.NeedsGKG && db.GKG == nil {
				t.Skip("dataset has no GKG")
			}
			params := func(name string) []string {
				if name == "theme" && themeArg != "" {
					return []string{themeArg}
				}
				return nil
			}
			p, err := d.ParseParams(params)
			if err != nil {
				t.Fatal(err)
			}

			ref, out, err := uncached.ExecuteSharded(d, sdb.View().WithWorkers(1).WithKind(d.Kind), p)
			if err != nil {
				t.Fatal(err)
			}
			if out != qcache.Bypass {
				t.Fatalf("uncached outcome %v", out)
			}

			e := sdb.View().WithWorkers(4).WithKind(d.Kind)
			cold, out, err := cached.ExecuteSharded(d, e, p)
			if err != nil {
				t.Fatal(err)
			}
			if out != qcache.Miss {
				t.Fatalf("cold outcome %v, want miss", out)
			}
			warm, out, err := cached.ExecuteSharded(d, e, p)
			if err != nil {
				t.Fatal(err)
			}
			if out != qcache.Hit {
				t.Fatalf("warm outcome %v, want hit", out)
			}

			refTree := jsonTree(t, ref)
			if err := eqTree(d.Kind, refTree, jsonTree(t, cold)); err != nil {
				t.Errorf("cached-cold diverges from uncached: %v", err)
			}
			if err := eqTree(d.Kind, refTree, jsonTree(t, warm)); err != nil {
				t.Errorf("cached-warm diverges from uncached: %v", err)
			}
		})
	}
}
