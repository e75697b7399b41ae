package baseline

import (
	"fmt"
	"testing"

	"gdeltmine/internal/convert"
	"gdeltmine/internal/engine"
	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/queries"
	"gdeltmine/internal/registry"
)

// The differential harness: every query kind runs through the parallel
// engine at workers 1 and 4 on two generator seeds, and each answer must
// agree exactly with the naive single-threaded row-store reference, which
// shares no machinery with the engine (no dictionary, postings, or quarter
// index). Worker-count independence catches reduction-order and data-race
// bugs; the second seed catches answers that are only accidentally right
// on the canonical test world.

// differentialConfigs are the two seeded worlds the harness runs on.
func differentialConfigs() []gen.Config {
	alt := gen.Small()
	alt.Seed = 1234
	return []gen.Config{gen.Small(), alt}
}

var differentialWorkers = []int{1, 4}

func eqSeries(t *testing.T, kind string, got, want []int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, reference %d", kind, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s[%d]: engine %d, reference %d", kind, i, got[i], want[i])
		}
	}
}

// checkTopK verifies a top-k answer against a reference count map: the
// per-item counts must match the reference exactly, be non-increasing, and
// form the k largest reference values (tie order among equals is free).
func checkTopK[K comparable](t *testing.T, kind string, keys []K, counts []int64, ref map[K]int64, k int) {
	t.Helper()
	if len(keys) != len(counts) {
		t.Fatalf("%s: %d keys but %d counts", kind, len(keys), len(counts))
	}
	for i, key := range keys {
		if counts[i] != ref[key] {
			t.Errorf("%s: item %v count %d, reference %d", kind, key, counts[i], ref[key])
		}
		if i > 0 && counts[i] > counts[i-1] {
			t.Errorf("%s: counts not descending at %d", kind, i)
		}
	}
	eqSeries(t, kind+" (top counts)", counts, TopCounts(ref, k))
}

// runEngine runs a registry kind at its default parameters on e.
func runEngine(t *testing.T, kind string, e *engine.Engine) any {
	t.Helper()
	d := registry.MustLookup(kind)
	p, err := d.ParseParams(func(string) []string { return nil })
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(e, p)
	if err != nil {
		t.Fatalf("%s: %v", kind, err)
	}
	return res
}

func TestDifferentialEngineVsRowStore(t *testing.T) {
	for _, cfg := range differentialConfigs() {
		c, err := gen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := convert.FromCorpus(c)
		if err != nil {
			t.Fatal(err)
		}
		rs := NewRowStore(res.DB)
		// Reference answers, computed once per world.
		refBySource := rs.ArticleCountsBySource()
		refByEvent := rs.ArticleCountsByEvent()
		refSummary := rs.Summary()
		refCross := rs.CrossCountry()
		refArticlesQ := rs.ArticlesPerQuarter()
		refEventsQ := rs.EventsPerQuarter()
		refActiveQ := rs.ActiveSourcesPerQuarter()
		refSlowQ := rs.SlowArticlesPerQuarter(gdelt.IntervalsPerDay)
		refSizes := rs.EventSizeCounts()

		for _, w := range differentialWorkers {
			e := engine.New(res.DB).WithWorkers(w)
			db := res.DB
			prefix := fmt.Sprintf("seed%d/w%d", cfg.Seed, w)

			t.Run(prefix+"/stats", func(t *testing.T) {
				got := queries.Dataset(e)
				if got.Articles != refSummary.Articles ||
					got.MinArticles != refSummary.MinArticles ||
					got.MaxArticles != refSummary.MaxArticles {
					t.Errorf("stats: engine %+v, reference %+v", got, refSummary)
				}
				if diff := got.WeightedAvg - refSummary.WeightedAvg; diff > 1e-9 || diff < -1e-9 {
					t.Errorf("stats weighted avg: engine %v, reference %v", got.WeightedAvg, refSummary.WeightedAvg)
				}
			})
			t.Run(prefix+"/top-publishers", func(t *testing.T) {
				rows := runEngine(t, "top-publishers", e).([]registry.PublisherRow)
				names := make([]string, len(rows))
				counts := make([]int64, len(rows))
				for i, r := range rows {
					names[i], counts[i] = r.Source, r.Articles
				}
				checkTopK(t, "top-publishers", names, counts, refBySource, 10)
			})
			t.Run(prefix+"/top-events", func(t *testing.T) {
				top := queries.TopEvents(e, 10)
				ids := make([]int64, len(top))
				counts := make([]int64, len(top))
				for i, te := range top {
					ids[i], counts[i] = te.EventID, te.Mentions
				}
				checkTopK(t, "top-events", ids, counts, refByEvent, 10)
			})
			t.Run(prefix+"/event-sizes", func(t *testing.T) {
				got := queries.EventSizes(e, 2).Counts
				for x := 1; x < len(got); x++ {
					if got[x] != refSizes[int64(x)] {
						t.Errorf("event-sizes[%d]: engine %d, reference %d", x, got[x], refSizes[int64(x)])
					}
				}
				for x, n := range refSizes {
					if x >= int64(len(got)) && n != 0 {
						t.Errorf("event-sizes: reference has %d events of size %d beyond engine range", n, x)
					}
				}
			})
			t.Run(prefix+"/country", func(t *testing.T) {
				cr, err := queries.CountryQuery(e)
				if err != nil {
					t.Fatal(err)
				}
				if cr.Cross.Rows != refCross.Rows || cr.Cross.Cols != refCross.Cols {
					t.Fatal("country: shape mismatch")
				}
				eqSeries(t, "country cross matrix", cr.Cross.Data, refCross.Data)
			})
			t.Run(prefix+"/series-articles", func(t *testing.T) {
				got := runEngine(t, "series-articles", e).(queries.QuarterlySeries)
				eqSeries(t, "articles per quarter", got.Values, refArticlesQ)
			})
			t.Run(prefix+"/series-events", func(t *testing.T) {
				eqSeries(t, "events per quarter", queries.EventsPerQuarter(e).Values, refEventsQ)
			})
			t.Run(prefix+"/series-active-sources", func(t *testing.T) {
				eqSeries(t, "active sources per quarter", queries.ActiveSourcesPerQuarter(e).Values, refActiveQ)
			})
			t.Run(prefix+"/series-slow-articles", func(t *testing.T) {
				got := runEngine(t, "series-slow-articles", e).(queries.QuarterlySeries)
				eqSeries(t, "slow articles per quarter", got.Values, refSlowQ)
			})
			t.Run(prefix+"/slow-count", func(t *testing.T) {
				want := rs.CountSlowArticles(gdelt.IntervalsPerDay)
				got := CountMentions(e, func(row int) bool {
					return db.Mentions.Delay[row] > gdelt.IntervalsPerDay
				})
				if got != want {
					t.Errorf("slow count: engine %d, reference %d", got, want)
				}
			})
		}
	}
}

// TestDifferentialEngineVsRawRescan checks the engine against the other
// baseline — the raw-file re-parse path — at both worker counts. Archive
// defects are disabled so both sides read identical inputs.
func TestDifferentialEngineVsRawRescan(t *testing.T) {
	for _, cfg := range differentialConfigs() {
		cfg.DefectMissingArchives = 0
		c, err := gen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if _, err := gen.WriteRaw(c, dir); err != nil {
			t.Fatal(err)
		}
		conv, err := convert.FromRawDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := NewRawRescan(dir)
		if err != nil {
			t.Fatal(err)
		}
		want, err := rr.CrossCountry()
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range differentialWorkers {
			t.Run(fmt.Sprintf("seed%d/w%d", cfg.Seed, w), func(t *testing.T) {
				cr, err := queries.CountryQuery(engine.New(conv.DB).WithWorkers(w))
				if err != nil {
					t.Fatal(err)
				}
				eqSeries(t, "raw-rescan cross matrix", cr.Cross.Data, want.Data)
			})
		}
	}
}
