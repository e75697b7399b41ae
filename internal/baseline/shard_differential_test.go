package baseline

import (
	"fmt"
	"testing"

	"gdeltmine/internal/convert"
	"gdeltmine/internal/engine"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/queries"
	"gdeltmine/internal/registry"
	"gdeltmine/internal/shard"
	"gdeltmine/internal/store"
)

// buildCorpus generates and converts one synthetic world.
func buildCorpus(t *testing.T, cfg gen.Config) *store.DB {
	t.Helper()
	c, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := convert.FromCorpus(c)
	if err != nil {
		t.Fatal(err)
	}
	return res.DB
}

// themeParam picks a real theme name for the theme-trends kind, or "".
func themeParam(t testing.TB, db *store.DB) string {
	t.Helper()
	if db.GKG == nil {
		return ""
	}
	tc, err := queries.TopThemes(engine.New(db), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tc) == 0 {
		return ""
	}
	return tc[0].Theme
}

// shardWorld builds the k-shard world over db. k == 0 is shard.Single — the
// world a server wraps a loaded monolith in — whose one part must be db
// itself, not a Split copy of its columns.
func shardWorld(t *testing.T, db *store.DB, k int) *shard.DB {
	t.Helper()
	if k == 0 {
		sdb, err := shard.Single(db)
		if err != nil {
			t.Fatalf("Single: %v", err)
		}
		if sdb.K() != 1 || sdb.Part(0) != db {
			t.Fatal("Single copied its input: part 0 is not the monolith")
		}
		return sdb
	}
	sdb, err := shard.Split(db, k)
	if err != nil {
		t.Fatalf("Split(%d): %v", k, err)
	}
	return sdb
}

// TestShardDifferentialAllKinds is the shard-vs-monolith battery: every
// registered query kind, on two generated worlds, sharded at K in
// {Single,1,3,5} (shardWorld's k0 is Single) and executed with 1 and 4
// workers, must produce the monolith's answer — integers bit-exact, floats
// within 1e-9 relative (eqTree). Single and K=1 pin the degenerate
// single-shard paths, odd K puts shard boundaries away from any structure
// in the data, and the worker sweep forbids results that depend on
// reduction schedule. ci.sh runs this battery under -race.
func TestShardDifferentialAllKinds(t *testing.T) {
	alt := gen.Small()
	alt.Seed = 777
	alt.End = 20170101000000 // shorter world: different interval count and quarters
	worlds := []struct {
		name string
		cfg  gen.Config
	}{
		{"seed42", gen.Small()},
		{"seed777", alt},
	}
	for _, w := range worlds {
		w := w
		t.Run(w.name, func(t *testing.T) {
			db := buildCorpus(t, w.cfg)
			themeArg := themeParam(t, db)
			params := func(name string) []string {
				if name == "theme" && themeArg != "" {
					return []string{themeArg}
				}
				return nil
			}

			// Monolith reference, single worker: the answer every sharded
			// execution must reproduce.
			refs := map[string]any{}
			for _, d := range registry.All() {
				if d.NeedsGKG && db.GKG == nil {
					continue
				}
				p, err := d.ParseParams(params)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := d.Run(engine.New(db).WithWorkers(1).WithKind(d.Kind), p)
				if err != nil {
					t.Fatalf("%s: monolith: %v", d.Kind, err)
				}
				refs[d.Kind] = jsonTree(t, ref)
			}

			for _, k := range []int{0, 1, 3, 5} {
				sdb := shardWorld(t, db, k)
				for _, workers := range []int{1, 4} {
					t.Run(fmt.Sprintf("k%d/w%d", k, workers), func(t *testing.T) {
						v := sdb.View().WithWorkers(workers)
						for _, d := range registry.All() {
							refTree, ok := refs[d.Kind]
							if !ok {
								continue
							}
							p, err := d.ParseParams(params)
							if err != nil {
								t.Fatal(err)
							}
							got, err := d.RunSharded(v.WithKind(d.Kind), p)
							if err != nil {
								t.Errorf("%s: sharded: %v", d.Kind, err)
								continue
							}
							if err := eqTree(d.Kind, refTree, jsonTree(t, got)); err != nil {
								t.Errorf("%s: sharded diverges from monolith: %v", d.Kind, err)
							}
						}
					})
				}
			}
		})
	}
}

// skewedBounds tiles [0, iv] into k shards with extreme size skew: shard 0
// holds ~80% of the timeline and the remaining shards split the tail
// evenly. Under the work-stealing executor the tiny shards finish almost
// immediately and their workers must steal grains from shard 0's kernels —
// the steal path a balanced split never forces — while the answers must
// stay identical to the monolith.
func skewedBounds(iv int32, k int) []int32 {
	bounds := make([]int32, k+1)
	big := iv * 4 / 5
	bounds[1] = big
	for i := 2; i <= k; i++ {
		bounds[i] = big + (iv-big)*int32(i-1)/int32(k-1)
	}
	bounds[k] = iv
	return bounds
}

// TestShardDifferentialSkewed is the battery over pathologically skewed
// shard sizes: every kind at K in {3,5} x workers {1,4} on an 80/20 split
// must reproduce the balanced-shard (and hence monolith) answer. ci.sh
// runs this under -race, so cross-shard merges and the steal path are
// exercised with the detector watching.
func TestShardDifferentialSkewed(t *testing.T) {
	db := buildCorpus(t, gen.Small())
	themeArg := themeParam(t, db)
	params := func(name string) []string {
		if name == "theme" && themeArg != "" {
			return []string{themeArg}
		}
		return nil
	}

	refs := map[string]any{}
	for _, d := range registry.All() {
		if d.NeedsGKG && db.GKG == nil {
			continue
		}
		p, err := d.ParseParams(params)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := d.Run(engine.New(db).WithWorkers(1).WithKind(d.Kind), p)
		if err != nil {
			t.Fatalf("%s: monolith: %v", d.Kind, err)
		}
		refs[d.Kind] = jsonTree(t, ref)
	}

	for _, k := range []int{3, 5} {
		bounds := skewedBounds(db.Meta.Intervals, k)
		sdb, err := shard.SplitAt(db, bounds)
		if err != nil {
			t.Fatalf("SplitAt(%v): %v", bounds, err)
		}
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("k%d/w%d", k, workers), func(t *testing.T) {
				v := sdb.View().WithWorkers(workers)
				for _, d := range registry.All() {
					refTree, ok := refs[d.Kind]
					if !ok {
						continue
					}
					p, err := d.ParseParams(params)
					if err != nil {
						t.Fatal(err)
					}
					got, err := d.RunSharded(v.WithKind(d.Kind), p)
					if err != nil {
						t.Errorf("%s: sharded: %v", d.Kind, err)
						continue
					}
					if err := eqTree(d.Kind, refTree, jsonTree(t, got)); err != nil {
						t.Errorf("%s: skewed shards diverge from monolith: %v", d.Kind, err)
					}
				}
			})
		}
	}
}

// TestShardDifferentialWindowed repeats the battery for a windowed view on
// the kinds that honor the mention window, with window endpoints chosen to
// fall both on and off shard boundaries.
func TestShardDifferentialWindowed(t *testing.T) {
	db := buildCorpus(t, gen.Small())
	iv := db.Meta.Intervals
	windows := [][2]int32{
		{0, iv},                // explicit full window
		{iv / 5, iv - iv/7},    // interior, off-boundary
		{iv / 3, iv/3 + iv/11}, // narrow
		{0, 0},                 // explicitly empty
		{iv - iv/13, iv},       // tail-only: the streaming case
	}
	for _, k := range []int{0, 1, 3, 5} {
		sdb := shardWorld(t, db, k)
		for _, win := range windows {
			win := win
			t.Run(fmt.Sprintf("k%d/win%d-%d", k, win[0], win[1]), func(t *testing.T) {
				v := sdb.View().WithWorkers(4).WithWindow(win[0], win[1])
				for _, d := range registry.All() {
					if d.NeedsGKG && db.GKG == nil {
						continue
					}
					p, err := d.ParseParams(func(name string) []string {
						if name == "theme" {
							return []string{themeParam(t, db)}
						}
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
					e := engine.New(db).WithWorkers(1).WithKind(d.Kind).WithInterval(win[0], win[1])
					ref, err := d.Run(e, p)
					if err != nil {
						t.Fatalf("%s: monolith: %v", d.Kind, err)
					}
					got, err := d.RunSharded(v.WithKind(d.Kind), p)
					if err != nil {
						t.Errorf("%s: sharded: %v", d.Kind, err)
						continue
					}
					if err := eqTree(d.Kind, jsonTree(t, ref), jsonTree(t, got)); err != nil {
						t.Errorf("%s: windowed sharded diverges: %v", d.Kind, err)
					}
				}
			})
		}
	}
}
