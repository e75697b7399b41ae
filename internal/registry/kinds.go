package registry

import (
	"gdeltmine/internal/engine"
	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/queries"
	"gdeltmine/internal/shard"
)

// The named result types below freeze the JSON shapes the HTTP API serves;
// before the registry they lived as anonymous structs inside individual
// handlers. Query kinds whose natural result type already encodes well
// (queries.DatasetStats, []queries.TopEvent, ...) return it directly.
// Every kind carries both Run (monolithic engine) and RunSharded (fan-out
// over a shard.View); the shaping helpers are shared so the two paths can
// only diverge in the aggregation itself — which the differential battery
// then pins to zero divergence. The kinds declared as plans share even
// that: both sides run the one planner.

// Defect is one row of the defects report (Table II classes).
type Defect struct {
	Class string `json:"class"`
	Count int64  `json:"count"`
}

// PublisherRow is one ranked publisher with its article count.
type PublisherRow struct {
	Rank     int    `json:"rank"`
	Source   string `json:"source"`
	Articles int64  `json:"articles"`
}

// EventSizeResult is the Figure 2 distribution with its power-law fit.
type EventSizeResult struct {
	Counts []int64 `json:"counts"`
	Alpha  float64 `json:"alpha"`
	R2     float64 `json:"r2"`
}

// CountryResult is the k×k corner of the aggregated country query
// (Tables V, VI, VII).
type CountryResult struct {
	Reported    []string    `json:"reported"`
	Publishing  []string    `json:"publishing"`
	Cross       [][]int64   `json:"cross"`
	Percent     [][]float64 `json:"percent"`
	CoReporting [][]float64 `json:"coReporting"`
}

// FollowResult is the follow-reporting matrix (Table IV).
type FollowResult struct {
	Names   []string    `json:"names"`
	F       [][]float64 `json:"f"`
	ColSums []float64   `json:"colSums"`
}

// CoReportResult is the co-reporting Jaccard matrix among top publishers.
type CoReportResult struct {
	Names   []string    `json:"names"`
	Jaccard [][]float64 `json:"jaccard"`
}

// CountResult is the article count matching a filter expression.
type CountResult struct {
	Where    string `json:"where"`
	Articles int64  `json:"articles"`
}

// TranslatedShareResult is the per-quarter share of machine-translated
// articles.
type TranslatedShareResult struct {
	Labels []string  `json:"labels"`
	Share  []float64 `json:"share"`
}

// clampK caps a requested k against a dataset-dependent bound that the
// static schema cannot know.
func clampK(k, n int) int {
	if k > n {
		return n
	}
	return k
}

// countPlan is the plan counting the rows matching where, grouped by
// group; a where that does not parse is a parameter error.
func countPlan(where, group string) (queries.AdhocSpec, error) {
	spec, err := queries.ParseAdhocSpec(where, group, "", 0)
	return spec, BadParam(err)
}

// publishersPlan is top-publishers' plan: articles per source in the
// window. follow, coreport and delays rank their panel with it too.
func publishersPlan(Params) (queries.AdhocSpec, error) { return queries.SourceCounts, nil }

// publisherRows shapes a group=source count vector as the k top ranked
// publisher rows. With pad, zero-count sources fill the ranking up to k
// (top-publishers); without, it ends at the last source with a match
// (filtered-publishers).
func publisherRows(p Params, vec queries.AdhocVec, key func(g int) string, pad bool) []PublisherRow {
	ids, counts := queries.TopGroups(vec.Counts, p.Int("k"), pad)
	out := make([]PublisherRow, len(ids))
	for i := range ids {
		out[i] = PublisherRow{Rank: i + 1, Source: key(int(ids[i])), Articles: counts[i]}
	}
	return out
}

// viewPanel returns the view's k top publishers by publishersPlan.
func viewPanel(v *shard.View, k int) []int32 {
	vec, _ := v.AdhocVectors(queries.SourceCounts) // no clause to bind: cannot fail
	ids, _ := queries.TopGroups(vec.Counts, k, true)
	return ids
}

// quarterSeries is the Shape of the kinds planned as group=quarter counts.
func quarterSeries(_ Params, vec queries.AdhocVec, key func(q int) string) any {
	return queries.QuarterSeries(vec, key)
}

func defectRows(rep *gdelt.ValidationReport) []Defect {
	out := make([]Defect, 0, len(rep.Counts))
	for c, n := range rep.Counts {
		out = append(out, Defect{Class: gdelt.DefectClass(c).String(), Count: n})
	}
	return out
}

func eventSizeResult(d queries.EventSizeDistribution) EventSizeResult {
	return EventSizeResult{Counts: d.Counts, Alpha: d.Fit.Alpha, R2: d.Fit.R2}
}

func countryResult(cr *queries.CountryReport, k int) CountryResult {
	k = clampK(k, len(cr.TopReported))
	k = clampK(k, len(cr.TopPublishing))
	rows := cr.TopReported[:k]
	cols := cr.TopPublishing[:k]
	name := func(idx []int) []string {
		out := make([]string, len(idx))
		for i, c := range idx {
			out[i] = gdelt.Countries[c].Name
		}
		return out
	}
	cross := make([][]int64, k)
	pct := make([][]float64, k)
	co := make([][]float64, k)
	for i := 0; i < k; i++ {
		cross[i] = make([]int64, k)
		pct[i] = make([]float64, k)
		co[i] = make([]float64, k)
		for j := 0; j < k; j++ {
			cross[i][j] = cr.Cross.At(rows[i], cols[j])
			pct[i][j] = cr.Fractions.At(rows[i], cols[j])
			co[i][j] = cr.CoReporting.At(cols[i], cols[j])
		}
	}
	return CountryResult{
		Reported:    name(rows),
		Publishing:  name(cols),
		Cross:       cross,
		Percent:     pct,
		CoReporting: co,
	}
}

func followResult(fr *queries.FollowReporting) FollowResult {
	f := make([][]float64, len(fr.Sources))
	for i := range f {
		f[i] = append([]float64(nil), fr.F.Row(i)...)
	}
	return FollowResult{Names: fr.Names, F: f, ColSums: fr.ColSums}
}

func coreportResult(co *queries.CoReporting) CoReportResult {
	jac := make([][]float64, len(co.Sources))
	for i := range jac {
		jac[i] = append([]float64(nil), co.Jaccard.Row(i)...)
	}
	return CoReportResult{Names: co.Names, Jaccard: jac}
}

func init() {
	register(&Descriptor{
		Kind: "stats",
		Help: "dataset summary statistics (Table I)",
		Run: func(e *engine.Engine, p Params) (any, error) {
			return queries.Dataset(e), nil
		},
		RunSharded: func(v *shard.View, p Params) (any, error) {
			return v.Dataset(), nil
		},
	})

	register(&Descriptor{
		Kind: "defects",
		Help: "input defect classes observed during conversion (Table II)",
		Run: func(e *engine.Engine, p Params) (any, error) {
			return defectRows(e.DB().Report), nil
		},
		RunSharded: func(v *shard.View, p Params) (any, error) {
			return defectRows(v.DB().Report()), nil
		},
	})

	register(&Descriptor{
		Kind:   "top-publishers",
		Help:   "k most productive publishers by article count",
		Params: []ParamSpec{kParam("number of publishers")},
		Plan:   publishersPlan,
		Shape: func(p Params, vec queries.AdhocVec, key func(g int) string) any {
			return publisherRows(p, vec, key, true)
		},
	})

	register(&Descriptor{
		Kind:   "top-events",
		Help:   "k most reported events (Table III)",
		Params: []ParamSpec{kParam("number of events")},
		Run: func(e *engine.Engine, p Params) (any, error) {
			return queries.TopEvents(e, clampK(p.Int("k"), e.DB().Events.Len())), nil
		},
		RunSharded: func(v *shard.View, p Params) (any, error) {
			return v.TopEvents(clampK(p.Int("k"), v.DB().EventCount())), nil
		},
	})

	register(&Descriptor{
		Kind: "event-sizes",
		Help: "event size distribution with power-law fit (Figure 2)",
		Run: func(e *engine.Engine, p Params) (any, error) {
			return eventSizeResult(queries.EventSizes(e, 2)), nil
		},
		RunSharded: func(v *shard.View, p Params) (any, error) {
			return eventSizeResult(v.EventSizes(2)), nil
		},
	})

	register(&Descriptor{
		Kind: "country",
		Help: "aggregated country cross-/co-reporting query (Tables V-VII)",
		Params: []ParamSpec{{Name: "k", Type: IntParam, Default: "10", Max: len(gdelt.Countries),
			Help: "matrix corner size"}},
		Run: func(e *engine.Engine, p Params) (any, error) {
			cr, err := queries.CountryQuery(e)
			if err != nil {
				return nil, err
			}
			return countryResult(cr, p.Int("k")), nil
		},
		// Table V's pair counts and the per-country event counts read every
		// event whatever the window; only Table VI/VII's cross-count reads
		// the window's mentions.
		Archive: func(v *shard.View) any { return v.CountryArchive() },
		Finish: func(v *shard.View, p Params, archive any) (any, error) {
			cr, err := v.CountryFinish(archive.(*shard.CountryArchive))
			if err != nil {
				return nil, err
			}
			return countryResult(cr, p.Int("k")), nil
		},
	})

	register(&Descriptor{
		Kind:   "follow",
		Help:   "follow-reporting fractions among top publishers (Table IV)",
		Params: []ParamSpec{pairKParam("number of publishers")},
		Run: func(e *engine.Engine, p Params) (any, error) {
			ids, _ := queries.TopPublishers(e, p.Int("k"))
			return followResult(queries.FollowReport(e, ids)), nil
		},
		RunSharded: func(v *shard.View, p Params) (any, error) {
			return followResult(v.FollowReport(viewPanel(v, p.Int("k")))), nil
		},
	})

	register(&Descriptor{
		Kind:   "coreport",
		Help:   "co-reporting Jaccard matrix among top publishers",
		Params: []ParamSpec{pairKParam("number of publishers")},
		Run: func(e *engine.Engine, p Params) (any, error) {
			ids, _ := queries.TopPublishers(e, p.Int("k"))
			co, err := queries.CoReport(e, ids)
			if err != nil {
				return nil, err
			}
			return coreportResult(co), nil
		},
		RunSharded: func(v *shard.View, p Params) (any, error) {
			co, err := v.CoReport(viewPanel(v, p.Int("k")))
			if err != nil {
				return nil, err
			}
			return coreportResult(co), nil
		},
	})

	register(&Descriptor{
		Kind:   "delays",
		Help:   "publishing delay statistics of top publishers (Table VIII)",
		Params: []ParamSpec{kParam("number of publishers")},
		Run: func(e *engine.Engine, p Params) (any, error) {
			ids, _ := queries.TopPublishers(e, p.Int("k"))
			return queries.PublisherDelays(e, ids), nil
		},
		RunSharded: func(v *shard.View, p Params) (any, error) {
			return v.PublisherDelays(viewPanel(v, p.Int("k"))), nil
		},
	})

	register(&Descriptor{
		Kind: "quarterly-delay",
		Help: "mean publishing delay per quarter (Figure 10)",
		Run: func(e *engine.Engine, p Params) (any, error) {
			return queries.QuarterlyDelays(e), nil
		},
		RunSharded: func(v *shard.View, p Params) (any, error) {
			return v.QuarterlyDelays(), nil
		},
	})

	register(&Descriptor{
		Kind:       "series-articles",
		Help:       "articles per quarter (Figure 4)",
		WindowOnly: true,
		Plan:       func(Params) (queries.AdhocSpec, error) { return countPlan("", "quarter") },
		Shape:      quarterSeries,
	})

	register(&Descriptor{
		Kind: "series-events",
		Help: "events per quarter (Figure 5)",
		Run: func(e *engine.Engine, p Params) (any, error) {
			return queries.EventsPerQuarter(e), nil
		},
		RunSharded: func(v *shard.View, p Params) (any, error) {
			return v.EventsPerQuarter(), nil
		},
	})

	register(&Descriptor{
		Kind: "series-active-sources",
		Help: "active sources per quarter (Figure 6)",
		Run: func(e *engine.Engine, p Params) (any, error) {
			return queries.ActiveSourcesPerQuarter(e), nil
		},
		RunSharded: func(v *shard.View, p Params) (any, error) {
			return v.ActiveSourcesPerQuarter(), nil
		},
	})

	register(&Descriptor{
		Kind:       "series-slow-articles",
		Help:       "slow articles (delay > 1 interval) per quarter (Figure 11)",
		WindowOnly: true,
		Plan:       func(Params) (queries.AdhocSpec, error) { return countPlan(queries.SlowWhere, "quarter") },
		Shape:      quarterSeries,
	})

	register(&Descriptor{
		Kind: "wildfires",
		Help: "fastest-spreading events by distinct early sources",
		Params: []ParamSpec{
			{Name: "window", Type: IntParam, Default: "8", Max: 1 << 20,
				Help: "early window in capture intervals"},
			{Name: "min", Type: IntParam, Default: "5", Max: 1 << 20,
				Help: "minimum distinct sources in the window"},
			{Name: "k", Type: IntParam, Default: "10", Max: 1000,
				Help: "number of events"},
		},
		Run: func(e *engine.Engine, p Params) (any, error) {
			return queries.FastSpreadingEvents(e, int32(p.Int("window")), p.Int("min"), p.Int("k")), nil
		},
		RunSharded: func(v *shard.View, p Params) (any, error) {
			return v.FastSpreadingEvents(int32(p.Int("window")), p.Int("min"), p.Int("k")), nil
		},
	})

	register(&Descriptor{
		Kind:   "count",
		Help:   "count articles matching a filter expression",
		Params: []ParamSpec{whereParam()},
		Plan:   func(p Params) (queries.AdhocSpec, error) { return countPlan(p.Str("where"), "") },
		Shape: func(p Params, vec queries.AdhocVec, _ func(int) string) any {
			return CountResult{Where: p.Str("where"), Articles: vec.Count}
		},
	})

	register(&Descriptor{
		Kind:   "filtered-publishers",
		Help:   "top publishers among articles matching a filter expression",
		Params: []ParamSpec{whereParam(), kParam("number of publishers")},
		Plan:   func(p Params) (queries.AdhocSpec, error) { return countPlan(p.Str("where"), "source") },
		Shape: func(p Params, vec queries.AdhocVec, key func(g int) string) any {
			return publisherRows(p, vec, key, false)
		},
	})

	register(&Descriptor{
		Kind:   "filtered-series",
		Help:   "articles per quarter among articles matching a filter expression",
		Params: []ParamSpec{whereParam()},
		Plan:   func(p Params) (queries.AdhocSpec, error) { return countPlan(p.Str("where"), "quarter") },
		Shape:  quarterSeries,
	})

	register(&Descriptor{
		Kind:     "themes",
		Help:     "most frequent GKG themes",
		Params:   []ParamSpec{{Name: "k", Type: IntParam, Default: "10", Max: 1000, Help: "number of themes"}},
		NeedsGKG: true,
		Run: func(e *engine.Engine, p Params) (any, error) {
			return queries.TopThemes(e, p.Int("k"))
		},
		RunSharded: func(v *shard.View, p Params) (any, error) {
			return v.TopThemes(p.Int("k"))
		},
	})

	register(&Descriptor{
		Kind: "theme-trends",
		Help: "per-quarter article counts of named GKG themes",
		Params: []ParamSpec{{Name: "theme", Type: StringListParam, Required: true,
			Help: "theme name (repeatable)"}},
		NeedsGKG: true,
		Run: func(e *engine.Engine, p Params) (any, error) {
			return queries.ThemeTrends(e, p.Strings("theme"))
		},
		RunSharded: func(v *shard.View, p Params) (any, error) {
			return v.ThemeTrends(p.Strings("theme"))
		},
	})

	register(&Descriptor{
		Kind:     "translated-share",
		Help:     "per-quarter share of machine-translated articles",
		NeedsGKG: true,
		Run: func(e *engine.Engine, p Params) (any, error) {
			labels, share, err := queries.TranslatedShare(e)
			if err != nil {
				return nil, err
			}
			return TranslatedShareResult{Labels: labels, Share: share}, nil
		},
		RunSharded: func(v *shard.View, p Params) (any, error) {
			labels, share, err := v.TranslatedShare()
			if err != nil {
				return nil, err
			}
			return TranslatedShareResult{Labels: labels, Share: share}, nil
		},
	})
}
