package baseline

import (
	"fmt"
	"testing"

	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/queries"
	"gdeltmine/internal/registry"
	"gdeltmine/internal/shard"
	"gdeltmine/internal/store"
)

// The metamorphic battery: properties that must hold across RELATED sharded
// executions without consulting the monolith. Where the differential tests
// pin "sharded == monolith" for one partitioning, these pin that the answer
// cannot depend on where the shard boundaries fall, on the order shards are
// assembled in, or on whether a window is executed whole or as two halves.

// runAllKinds executes every registered kind on the view and returns the
// decoded JSON tree per kind.
func runAllKinds(t *testing.T, v *shard.View, themeArg string) map[string]any {
	t.Helper()
	params := func(name string) []string {
		if name == "theme" && themeArg != "" {
			return []string{themeArg}
		}
		return nil
	}
	out := map[string]any{}
	for _, d := range registry.All() {
		if d.NeedsGKG && !v.DB().HasGKG() {
			continue
		}
		p, err := d.ParseParams(params)
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.RunSharded(v.WithKind(d.Kind), p)
		if err != nil {
			t.Fatalf("%s: %v", d.Kind, err)
		}
		out[d.Kind] = jsonTree(t, got)
	}
	return out
}

// TestShardMetamorphicBoundaryMoves: moving interior shard boundaries —
// including onto degenerate positions right next to each other — must not
// change any query result.
func TestShardMetamorphicBoundaryMoves(t *testing.T) {
	db := buildCorpus(t, gen.Small())
	themeArg := themeParam(t, db)
	iv := db.Meta.Intervals

	base := []int32{0, iv / 3, 2 * iv / 3, iv}
	variants := [][]int32{
		{0, iv/3 + 7, 2*iv/3 - 11, iv},     // nudged off the thirds
		{0, 1, 2 * iv / 3, iv},             // first shard almost empty
		{0, iv / 3, iv - 1, iv},            // last shard almost empty
		{0, iv / 2, iv/2 + 1, iv},          // adjacent boundaries mid-archive
		{0, iv / 7, iv / 3, iv - iv/5, iv}, // different K entirely
	}

	sdb, err := shard.SplitAt(db, base)
	if err != nil {
		t.Fatal(err)
	}
	ref := runAllKinds(t, sdb.View().WithWorkers(2), themeArg)

	for vi, bounds := range variants {
		bounds := bounds
		t.Run(fmt.Sprintf("variant%d", vi), func(t *testing.T) {
			moved, err := shard.SplitAt(db, bounds)
			if err != nil {
				t.Fatalf("SplitAt(%v): %v", bounds, err)
			}
			got := runAllKinds(t, moved.View().WithWorkers(2), themeArg)
			for kind, refTree := range ref {
				if err := eqTree(kind, refTree, got[kind]); err != nil {
					t.Errorf("%s: boundary move %v changed the answer: %v", kind, bounds, err)
				}
			}
		})
	}
}

// TestShardMetamorphicPermutation: assembling the same shards in any order
// must produce the same sharded DB — AssembleSharded sorts entries jointly
// with their parts by time range.
func TestShardMetamorphicPermutation(t *testing.T) {
	db := buildCorpus(t, gen.Small())
	themeArg := themeParam(t, db)
	sdb, err := shard.Split(db, 4)
	if err != nil {
		t.Fatal(err)
	}
	files := make([]shard.ManifestEntry, sdb.K())
	for i := range files {
		files[i].File = fmt.Sprintf("part%d", i)
	}
	m, err := shard.ManifestFromDB(sdb, files)
	if err != nil {
		t.Fatal(err)
	}
	ref := runAllKinds(t, sdb.View().WithWorkers(2), themeArg)

	for pi, perm := range [][]int{{3, 2, 1, 0}, {2, 0, 3, 1}, {1, 3, 0, 2}} {
		perm := perm
		t.Run(fmt.Sprintf("perm%d", pi), func(t *testing.T) {
			pm := &shard.Manifest{Meta: m.Meta, Sources: m.Sources, Themes: m.Themes,
				Entries: make([]shard.ManifestEntry, len(perm))}
			parts := make([]*store.DB, len(perm))
			for i, p := range perm {
				pm.Entries[i] = m.Entries[p]
				parts[i] = sdb.Part(p)
			}
			permuted, err := shard.AssembleSharded(pm, parts)
			if err != nil {
				t.Fatalf("AssembleSharded(perm %v): %v", perm, err)
			}
			got := runAllKinds(t, permuted.View().WithWorkers(2), themeArg)
			for kind, refTree := range ref {
				if err := eqTree(kind, refTree, got[kind]); err != nil {
					t.Errorf("%s: permutation %v changed the answer: %v", kind, perm, err)
				}
			}
		})
	}
}

// TestShardMetamorphicWindowSplit: for additive windowed queries, the
// answer over [a, b) must equal the element-wise sum of the answers over
// [a, m) and [m, b), with the midpoint both on and off shard boundaries.
func TestShardMetamorphicWindowSplit(t *testing.T) {
	db := buildCorpus(t, gen.Small())
	iv := db.Meta.Intervals
	sdb, err := shard.Split(db, 3)
	if err != nil {
		t.Fatal(err)
	}
	v := sdb.View().WithWorkers(2)
	a, b := iv/7, iv-iv/9
	mids := []int32{(a + b) / 2, sdb.Bounds()[1], a + 1, b - 1}
	for _, mid := range mids {
		mid := mid
		t.Run(fmt.Sprintf("mid%d", mid), func(t *testing.T) {
			whole := v.WithWindow(a, b)
			left := v.WithWindow(a, mid)
			right := v.WithWindow(mid, b)

			run := func(kind string, v *shard.View) any {
				t.Helper()
				res, err := registry.MustLookup(kind).RunSharded(v, registry.Params{})
				if err != nil {
					t.Fatalf("%s: %v", kind, err)
				}
				return res
			}
			wc := run("count", whole).(registry.CountResult).Articles
			lc := run("count", left).(registry.CountResult).Articles
			rc := run("count", right).(registry.CountResult).Articles
			if wc != lc+rc {
				t.Errorf("count[%d,%d) = %d, but [%d,%d)+[%d,%d) = %d+%d",
					a, b, wc, a, mid, mid, b, lc, rc)
			}
			// The whole window's answers against per-row loops over the
			// monolith, so a split that is additive but wrong still fails.
			inWhole := func(r int) bool { iv := db.Mentions.Interval[r]; return iv >= a && iv < b }
			if want := perRowQuarters(db, inWhole); wc != sum(want) {
				t.Errorf("count[%d,%d) = %d, per-row loop %d", a, b, wc, sum(want))
			}
			refs := map[string][]int64{
				"series-articles": perRowQuarters(db, inWhole),
				"series-slow-articles": perRowQuarters(db, func(r int) bool {
					return inWhole(r) && db.Mentions.Delay[r] > gdelt.IntervalsPerDay
				}),
			}
			for name, ref := range refs {
				w := run(name, whole).(queries.QuarterlySeries)
				l := run(name, left).(queries.QuarterlySeries)
				r := run(name, right).(queries.QuarterlySeries)
				eqSeries(t, name, w.Values, ref)
				for q := range w.Values {
					if w.Values[q] != l.Values[q]+r.Values[q] {
						t.Errorf("%s quarter %d: whole %d != left %d + right %d",
							name, q, w.Values[q], l.Values[q], r.Values[q])
					}
				}
			}
		})
	}
}

// TestShardMetamorphicTopKUnion: threshold-algorithm consistency of the
// global publisher top-k with per-shard candidates. Per-shard top-k lists
// (scores over each shard's time range, via windowed views) bound the
// global score of any source OUTSIDE their union by the sum of the
// per-shard k-th scores; every global top-k member strictly above that
// threshold must therefore appear in the union. The naive "global top-k ⊆
// union of per-shard top-ks" is NOT a theorem — this thresholded form is.
func TestShardMetamorphicTopKUnion(t *testing.T) {
	db := buildCorpus(t, gen.Small())
	const k = 10
	for _, K := range []int{3, 5} {
		K := K
		t.Run(fmt.Sprintf("k%d", K), func(t *testing.T) {
			sdb, err := shard.Split(db, K)
			if err != nil {
				t.Fatal(err)
			}
			v := sdb.View().WithWorkers(2)
			d := registry.MustLookup("top-publishers")
			p, err := d.ParseParams(func(string) []string { return []string{fmt.Sprint(k)} })
			if err != nil {
				t.Fatal(err)
			}
			top := func(v *shard.View) []registry.PublisherRow {
				t.Helper()
				res, err := d.RunSharded(v, p)
				if err != nil {
					t.Fatal(err)
				}
				return res.([]registry.PublisherRow)
			}
			union := map[string]bool{}
			var threshold int64
			for i := 0; i < sdb.K(); i++ {
				rows := top(v.WithWindow(sdb.Bounds()[i], sdb.Bounds()[i+1]))
				for _, r := range rows {
					union[r.Source] = true
				}
				if len(rows) >= k {
					threshold += rows[k-1].Articles
				}
			}
			for i, r := range top(v) {
				if r.Articles > threshold && !union[r.Source] {
					t.Errorf("global rank %d publisher %q (score %d > threshold %d) missing from per-shard candidates",
						i+1, r.Source, r.Articles, threshold)
				}
			}
		})
	}
}

// perRowQuarters counts db's mention rows that keep admits per calendar
// quarter, one row at a time through the quarter index.
func perRowQuarters(db *store.DB, keep func(r int) bool) []int64 {
	out := make([]int64, db.NumQuarters())
	for r := range db.Mentions.Interval {
		if keep(r) {
			out[db.QuarterOfInterval(db.Mentions.Interval[r])]++
		}
	}
	return out
}

func sum(xs []int64) int64 {
	var n int64
	for _, x := range xs {
		n += x
	}
	return n
}
