package queries

import (
	"strings"
	"testing"

	"gdeltmine/internal/convert"
	"gdeltmine/internal/engine"
	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/store"
)

var (
	cachedDB     *store.DB
	cachedCorpus *gen.Corpus
)

func testEngine(t testing.TB) *engine.Engine {
	t.Helper()
	if cachedDB == nil {
		c, err := gen.Generate(gen.Small())
		if err != nil {
			t.Fatal(err)
		}
		res, err := convert.FromCorpus(c)
		if err != nil {
			t.Fatal(err)
		}
		cachedCorpus = c
		cachedDB = res.DB
	}
	return engine.New(cachedDB)
}

func TestCountryMaskFitsUint64(t *testing.T) {
	if countryCount > 64 {
		t.Fatalf("country bitmask needs %d bits", countryCount)
	}
}

func TestDatasetStats(t *testing.T) {
	e := testEngine(t)
	ds := Dataset(e)
	if ds.Sources != len(cachedCorpus.World.Sources) {
		t.Fatalf("sources %d", ds.Sources)
	}
	if ds.Events != int64(len(cachedCorpus.Events)) || ds.Articles != int64(len(cachedCorpus.Mentions)) {
		t.Fatalf("events/articles %d/%d", ds.Events, ds.Articles)
	}
	if ds.MinArticles != 1 {
		t.Fatalf("min articles %d", ds.MinArticles)
	}
	if ds.WeightedAvg < 2 || ds.WeightedAvg > 6 {
		t.Fatalf("weighted avg %.2f (paper: 3.36)", ds.WeightedAvg)
	}
	if ds.ZeroMentionEvents != 0 {
		t.Fatalf("zero-mention events %d in direct build", ds.ZeroMentionEvents)
	}
	if ds.CaptureIntervals != int64(cachedDB.Meta.Intervals) {
		t.Fatalf("intervals %d", ds.CaptureIntervals)
	}
}

func TestTopEventsAreHeadlines(t *testing.T) {
	e := testEngine(t)
	top := TopEvents(e, 10)
	if len(top) != 10 {
		t.Fatalf("top events %d", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Mentions > top[i-1].Mentions {
			t.Fatal("top events not descending")
		}
	}
	// The most reported event is a headline analogue with a valid URL.
	row := cachedDB.EventRowByID(top[0].EventID)
	if row < 0 {
		t.Fatal("top event not found")
	}
	if top[0].SourceURL == "" || !strings.HasPrefix(top[0].SourceURL, "https://") {
		t.Fatalf("top event url %q", top[0].SourceURL)
	}
	// Headline coverage dwarfs the typical event.
	ds := Dataset(e)
	if float64(top[0].Mentions) < 5*ds.WeightedAvg {
		t.Fatalf("top event %d mentions vs avg %.1f: no headline separation", top[0].Mentions, ds.WeightedAvg)
	}
}

func TestEventSizesPowerLaw(t *testing.T) {
	e := testEngine(t)
	dist := EventSizes(e, 1)
	if dist.FitErr != nil {
		t.Fatal(dist.FitErr)
	}
	// Figure 2 shape: decaying power law with a plausible exponent.
	if dist.Fit.Alpha < 1.5 || dist.Fit.Alpha > 3.5 {
		t.Fatalf("power-law alpha %.2f outside [1.5, 3.5]", dist.Fit.Alpha)
	}
	if dist.Fit.R2 < 0.7 {
		t.Fatalf("power-law fit R2 %.3f too poor", dist.Fit.R2)
	}
	if dist.Counts[1] == 0 || dist.Counts[1] < dist.Counts[4] {
		t.Fatal("size-1 events must dominate")
	}
}

func TestTopPublishersAreMediaGroup(t *testing.T) {
	e := testEngine(t)
	ids, counts := TopPublishers(e, 10)
	if len(ids) != 10 {
		t.Fatalf("top %d", len(ids))
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] > counts[i-1] {
			t.Fatal("counts not descending")
		}
	}
	// Most of the top-10 are co-owned group members (paper: 8 out of 10).
	// Dictionary ids are assigned in first-seen order, so map through the
	// source names.
	groupNames := map[string]bool{}
	for i := 0; i < cachedCorpus.World.Cfg.MediaGroupSize; i++ {
		groupNames[cachedCorpus.World.Sources[i].Name] = true
	}
	group := 0
	for _, s := range ids {
		if groupNames[cachedDB.Sources.Name(s)] {
			group++
		}
	}
	if group < 6 {
		t.Fatalf("only %d of top-10 are group members", group)
	}
	uk := 0
	for _, s := range ids {
		if cachedDB.SourceCountry[s] == int16(gdelt.CountryIndex("UK")) {
			uk++
		}
	}
	if uk < 6 {
		t.Fatalf("only %d of top-10 are British", uk)
	}
}

// planSeries runs the quarterly article series plan of the articles
// matching where — what the series-articles, series-slow-articles and
// filtered-series kinds run.
func planSeries(t *testing.T, e *engine.Engine, where string) QuarterlySeries {
	t.Helper()
	spec, err := ParseAdhocSpec(where, "quarter", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	vec, err := AdhocVectors(e, spec)
	if err != nil {
		t.Fatal(err)
	}
	return QuarterSeries(vec, e.DB().QuarterLabel)
}

func TestQuarterlySeriesShapes(t *testing.T) {
	e := testEngine(t)
	arts := planSeries(t, e, "")
	evs := EventsPerQuarter(e)
	act := ActiveSourcesPerQuarter(e)
	nq := cachedDB.NumQuarters()
	if len(arts.Values) != nq || len(evs.Values) != nq || len(act.Values) != nq {
		t.Fatal("series lengths")
	}
	if arts.Labels[0] != "2015Q1" || arts.Labels[nq-1] != "2019Q4" {
		t.Fatalf("labels %s..%s", arts.Labels[0], arts.Labels[nq-1])
	}
	// Totals agree with the dataset.
	var sumA, sumE int64
	for q := 0; q < nq; q++ {
		sumA += arts.Values[q]
		sumE += evs.Values[q]
	}
	if sumA != int64(cachedDB.Mentions.Len()) {
		t.Fatalf("article series sums to %d", sumA)
	}
	if sumE != int64(cachedDB.Events.Len()) {
		t.Fatalf("event series sums to %d", sumE)
	}
	// The first quarter is partial (starts 18 Feb) and must be clearly
	// smaller than the second.
	if arts.Values[0] >= arts.Values[1] {
		t.Fatalf("first (partial) quarter %d >= second %d", arts.Values[0], arts.Values[1])
	}
	// Active sources: roughly stable, roughly a third of all sources.
	total := float64(cachedDB.Sources.Len())
	for q := 1; q < nq-1; q++ {
		frac := float64(act.Values[q]) / total
		if frac < 0.15 || frac > 0.75 {
			t.Fatalf("quarter %d active fraction %.2f", q, frac)
		}
	}
	// 2019 volume below the 2016 level (the paper's slight decline).
	y2016 := arts.Values[4] + arts.Values[5] + arts.Values[6] + arts.Values[7]
	y2019 := arts.Values[16] + arts.Values[17] + arts.Values[18] + arts.Values[19]
	if y2019 >= y2016 {
		t.Fatalf("2019 articles %d not below 2016 %d", y2019, y2016)
	}
}

func TestTopPublisherSeries(t *testing.T) {
	e := testEngine(t)
	ps := TopPublisherSeries(e, 10)
	if len(ps.Sources) != 10 || len(ps.Values) != 10 {
		t.Fatal("series shape")
	}
	for p := range ps.Values {
		var sum int64
		for _, v := range ps.Values[p] {
			sum += v
		}
		if sum != ps.Totals[p] {
			t.Fatalf("publisher %d series sums to %d want %d", p, sum, ps.Totals[p])
		}
	}
	if ps.Names[0] == "" {
		t.Fatal("names missing")
	}
}

func TestCoReport(t *testing.T) {
	e := testEngine(t)
	ids, _ := TopPublishers(e, 10)
	co, err := CoReport(e, ids)
	if err != nil {
		t.Fatal(err)
	}
	if !co.Jaccard.IsSymmetric(1e-12) {
		t.Fatal("co-reporting matrix must be symmetric")
	}
	// e_i must match a direct count of distinct events per source.
	for i, s := range co.Sources {
		distinct := map[int32]bool{}
		for _, r := range cachedDB.SourceMentions(s) {
			distinct[cachedDB.Mentions.EventRow[r]] = true
		}
		if co.EventCounts[i] != int64(len(distinct)) {
			t.Fatalf("e_%d = %d want %d", i, co.EventCounts[i], len(distinct))
		}
	}
	// Pair counts bounded by the min of the two event counts.
	for i := range co.Sources {
		for j := range co.Sources {
			if i == j {
				continue
			}
			eij := co.Pair.At(i, j)
			if eij > co.EventCounts[i] || eij > co.EventCounts[j] {
				t.Fatalf("e_%d%d = %d exceeds totals", i, j, eij)
			}
		}
	}
	// The group members co-report heavily: top-2 pair above 0.05.
	if co.Jaccard.At(0, 1) < 0.05 {
		t.Fatalf("top pair jaccard %.4f too low", co.Jaccard.At(0, 1))
	}
}

func TestCoReportWorkerInvariance(t *testing.T) {
	e := testEngine(t)
	ids, _ := TopPublishers(e, 5)
	a, err := CoReport(e.WithWorkers(1), ids)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CoReport(e.WithWorkers(8), ids)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Pair.Data {
		if a.Pair.Data[i] != b.Pair.Data[i] {
			t.Fatal("pair counts differ across worker counts")
		}
	}
}

func TestFollowReport(t *testing.T) {
	e := testEngine(t)
	ids, _ := TopPublishers(e, 10)
	fr := FollowReport(e, ids)
	n := len(ids)
	// n_ij bounded by n_j; f in [0, 1]; column sums match.
	for j := 0; j < n; j++ {
		var col float64
		for i := 0; i < n; i++ {
			if fr.N.At(i, j) > fr.Articles[j] {
				t.Fatalf("n_%d%d exceeds articles of %d", i, j, j)
			}
			v := fr.F.At(i, j)
			if v < 0 || v > 1 {
				t.Fatalf("f_%d%d = %v", i, j, v)
			}
			col += v
		}
		if diff := col - fr.ColSums[j]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("col sum mismatch %v vs %v", col, fr.ColSums[j])
		}
	}
	// Table IV shape: substantial follow-reporting among top publishers.
	var sum float64
	for _, s := range fr.ColSums {
		sum += s
	}
	if sum/float64(n) < 0.1 {
		t.Fatalf("mean follow column sum %.3f: no follow structure", sum/float64(n))
	}
	// Roughly balanced leader/follower roles among the group head: the
	// asymmetry |f_ij - f_ji| should be small relative to the values.
	f01, f10 := fr.F.At(0, 1), fr.F.At(1, 0)
	if f01 == 0 || f10 == 0 {
		t.Fatal("top pair has no follow-reporting")
	}
	ratio := f01 / f10
	if ratio < 0.25 || ratio > 4 {
		t.Fatalf("top pair strongly directional: %v vs %v", f01, f10)
	}
}

func TestFollowReportSelfFollow(t *testing.T) {
	e := testEngine(t)
	ids, _ := TopPublishers(e, 10)
	fr := FollowReport(e, ids)
	// The corpus generates repeat coverage (headline + cascade), so top
	// publishers have nonzero self-follow-up rates on the diagonal.
	var diag float64
	for i := range ids {
		diag += fr.F.At(i, i)
	}
	if diag == 0 {
		t.Fatal("no self-follow-reporting on the diagonal")
	}
}

func TestCountryQueryShapes(t *testing.T) {
	e := testEngine(t)
	cr, err := CountryQuery(e)
	if err != nil {
		t.Fatal(err)
	}
	us := gdelt.CountryIndex("US")
	uk := gdelt.CountryIndex("UK")
	as := gdelt.CountryIndex("AS")
	in := gdelt.CountryIndex("IN")

	// Table VI shape: the US row dominates every major publishing column.
	for _, pub := range []int{uk, us, as, in} {
		if cr.ArticleCounts[pub] == 0 {
			t.Fatalf("no articles for publishing country %d", pub)
		}
		usArticles := cr.Cross.At(us, pub)
		for r := 0; r < countryCount; r++ {
			if r == us {
				continue
			}
			if cr.Cross.At(r, pub) > usArticles {
				t.Fatalf("country %d out-reports US in column %d", r, pub)
			}
		}
	}
	// The US is the most reported country overall.
	if cr.TopReported[0] != us {
		t.Fatalf("top reported country %d want US", cr.TopReported[0])
	}
	// UK is the top publishing country (Table VI column order).
	if cr.TopPublishing[0] != uk {
		t.Fatalf("top publishing country %s want UK", gdelt.Countries[cr.TopPublishing[0]].FIPS)
	}

	// Table VII shape: the US share of every major column is 25-55% and
	// roughly consistent across publishing countries.
	var usShares []float64
	for _, pub := range []int{uk, us, as, in} {
		sh := cr.Fractions.At(us, pub)
		if sh < 20 || sh > 60 {
			t.Fatalf("US share of column %d is %.1f%%", pub, sh)
		}
		usShares = append(usShares, sh)
	}
	for _, sh := range usShares[1:] {
		if sh/usShares[0] < 0.5 || sh/usShares[0] > 2 {
			t.Fatalf("US shares inconsistent across publishers: %v", usShares)
		}
	}

	// Table V shape: the anglo cluster co-reports far above the rest.
	angloMin := cr.CoReporting.At(uk, us)
	if cr.CoReporting.At(uk, as) < angloMin {
		angloMin = cr.CoReporting.At(uk, as)
	}
	if cr.CoReporting.At(us, as) < angloMin {
		angloMin = cr.CoReporting.At(us, as)
	}
	it := gdelt.CountryIndex("IT")
	ni := gdelt.CountryIndex("NI")
	for _, weak := range [][2]int{{it, ni}, {ni, gdelt.CountryIndex("BG")}} {
		if cr.CoReporting.At(weak[0], weak[1]) >= angloMin {
			t.Fatalf("weak pair %v co-reports %.4f >= anglo %.4f",
				weak, cr.CoReporting.At(weak[0], weak[1]), angloMin)
		}
	}
	// India couples to the anglosphere more weakly than the anglo pairs.
	if cr.CoReporting.At(in, us) >= angloMin {
		t.Fatalf("India-US %.4f not below anglo min %.4f", cr.CoReporting.At(in, us), angloMin)
	}
	if !cr.CoReporting.IsSymmetric(1e-12) {
		t.Fatal("country co-reporting must be symmetric")
	}
}

func TestCountryQueryWorkerInvariance(t *testing.T) {
	e := testEngine(t)
	a, err := CountryQuery(e.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := CountryQuery(e.WithWorkers(6))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Cross.Data {
		if a.Cross.Data[i] != b.Cross.Data[i] {
			t.Fatal("cross counts differ across worker counts")
		}
	}
	for i := range a.CoReporting.Data {
		if a.CoReporting.Data[i] != b.CoReporting.Data[i] {
			t.Fatal("co-reporting differs across worker counts")
		}
	}
}

func TestPublisherDelaysTableVIII(t *testing.T) {
	e := testEngine(t)
	ids, _ := TopPublishers(e, 10)
	rows := PublisherDelays(e, ids)
	if len(rows) != 10 {
		t.Fatal("rows")
	}
	for _, st := range rows {
		if st.Articles == 0 {
			t.Fatalf("top publisher %s has no articles", st.Name)
		}
		if st.Min < 1 {
			t.Fatalf("%s min %d", st.Name, st.Min)
		}
		if st.Median < 4 || st.Median > 48 {
			t.Fatalf("%s median %d intervals, want the 24h-cycle band (paper: 13-16)", st.Name, st.Median)
		}
		if st.Average <= float64(st.Median) {
			t.Fatalf("%s average %.1f not skewed above median %d", st.Name, st.Average, st.Median)
		}
		if st.Max < st.Median || st.Max > MaxDelay {
			t.Fatalf("%s max %d", st.Name, st.Max)
		}
	}
	// The paper's top publishers all share a year-scale maximum (35135).
	// At their ~500k articles each the anniversary band is hit almost
	// surely; at this test corpus's ~2k articles per publisher a majority
	// suffices.
	yearScale := 0
	for _, st := range rows {
		if st.Max > gdelt.IntervalsPerYear-2*gdelt.IntervalsPerDay {
			yearScale++
		}
	}
	if yearScale < 5 {
		t.Fatalf("only %d of the top-10 have year-scale maxima", yearScale)
	}
}

func TestDelayDistributionShapes(t *testing.T) {
	e := testEngine(t)
	dd := DelayDistributionAll(e)
	if len(dd.PerSource) == 0 {
		t.Fatal("no sources")
	}
	// About half the sources have reported something within one interval
	// (generously bounded).
	minOne := 0
	for _, st := range dd.PerSource {
		if st.Min <= 1 {
			minOne++
		}
	}
	frac := float64(minOne) / float64(len(dd.PerSource))
	if frac < 0.2 || frac > 0.95 {
		t.Fatalf("fraction of sources with min delay 1: %.2f", frac)
	}
	// Maxima cluster at the news-cycle caps: more mass at/above the day
	// bucket than below it.
	if dd.Max.Total() != int64(len(dd.PerSource)) {
		t.Fatal("max histogram total")
	}
	dayBucket := dd.Max.Bucket(float64(gdelt.IntervalsPerDay))
	var below, atAbove int64
	for b, c := range dd.Max.Counts {
		if b < dayBucket {
			below += c
		} else {
			atAbove += c
		}
	}
	if atAbove < below {
		t.Fatalf("max delays not clustered at the cycle caps: %d below vs %d at/above", below, atAbove)
	}
	// The archive outlier group exists: some sources with min delay beyond
	// 2880 intervals (a month).
	outliers := 0
	for _, st := range dd.PerSource {
		if st.Min > 2880 {
			outliers++
		}
	}
	if outliers == 0 {
		t.Fatal("no archive-republisher outliers in min delay (Figure 9)")
	}
}

func TestQuarterlyDelaysTrend(t *testing.T) {
	e := testEngine(t)
	qd := QuarterlyDelays(e)
	nq := len(qd.Average)
	if nq != cachedDB.NumQuarters() {
		t.Fatal("length")
	}
	// Figure 10a: averages decline into 2019; Figure 10b: medians stable.
	avg2016 := (qd.Average[4] + qd.Average[5] + qd.Average[6] + qd.Average[7]) / 4
	avg2019 := (qd.Average[16] + qd.Average[17] + qd.Average[18] + qd.Average[19]) / 4
	if avg2019 >= avg2016*0.95 {
		t.Fatalf("average delay did not decline: 2016=%.1f 2019=%.1f", avg2016, avg2019)
	}
	for q := 1; q < nq; q++ {
		if qd.Median[q] < 2 || qd.Median[q] > 96 {
			t.Fatalf("quarter %d median %d outside the 24h cycle", q, qd.Median[q])
		}
	}
	// Median stability: max/min ratio across full quarters bounded.
	minM, maxM := qd.Median[1], qd.Median[1]
	for q := 2; q < nq; q++ {
		if qd.Median[q] < minM {
			minM = qd.Median[q]
		}
		if qd.Median[q] > maxM {
			maxM = qd.Median[q]
		}
	}
	if float64(maxM)/float64(minM) > 3 {
		t.Fatalf("medians not stable: %d..%d", minM, maxM)
	}
}

func TestSlowArticlesDecline(t *testing.T) {
	e := testEngine(t)
	sa := planSeries(t, e, SlowWhere)
	arts := planSeries(t, e, "")
	// Figure 11: the >24h fraction declines significantly by 2019.
	frac := func(q int) float64 { return float64(sa.Values[q]) / float64(arts.Values[q]) }
	f2016 := (frac(4) + frac(5) + frac(6) + frac(7)) / 4
	f2019 := (frac(16) + frac(17) + frac(18) + frac(19)) / 4
	if f2019 >= f2016*0.8 {
		t.Fatalf(">24h fraction did not decline: 2016=%.4f 2019=%.4f", f2016, f2019)
	}
}
