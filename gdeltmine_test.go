package gdeltmine

import (
	"path/filepath"
	"testing"
)

// TestEndToEndPipeline drives the full public workflow: generate a raw
// dataset, convert it, persist the binary format, reload it, and run every
// experiment query through the facade.
func TestEndToEndPipeline(t *testing.T) {
	cfg := SmallCorpus()
	corpus, err := GenerateCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	wr, err := WriteRawDataset(corpus, dir)
	if err != nil {
		t.Fatal(err)
	}
	if wr.FilesWritten == 0 {
		t.Fatal("no files written")
	}

	ds, err := ConvertRaw(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Articles() == 0 || ds.Events() == 0 || ds.Sources() == 0 {
		t.Fatal("empty dataset")
	}

	binPath := filepath.Join(dir, "gdelt.gdmb")
	if err := ds.SaveBinary(binPath); err != nil {
		t.Fatal(err)
	}
	loaded, err := OpenBinary(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Articles() != ds.Articles() || loaded.Events() != ds.Events() {
		t.Fatal("binary round trip lost rows")
	}

	// Run every experiment once on the loaded dataset.
	st := loaded.Stats()
	if st.MinArticles < 1 && st.ZeroMentionEvents == 0 {
		t.Fatalf("stats %+v", st)
	}
	if got := loaded.TopEvents(10); len(got) != 10 {
		t.Fatalf("top events %d", len(got))
	}
	if d := loaded.EventSizes(1); d.FitErr != nil {
		t.Fatal(d.FitErr)
	}
	ids, counts := loaded.TopPublishers(10)
	if len(ids) != 10 || counts[0] == 0 {
		t.Fatal("top publishers")
	}
	if s := loaded.ActiveSourcesPerQuarter(); len(s.Values) != loaded.Quarters() {
		t.Fatal("figure 3")
	}
	if s := loaded.EventsPerQuarter(); len(s.Values) != loaded.Quarters() {
		t.Fatal("figure 4")
	}
	if s := loaded.ArticlesPerQuarter(); len(s.Values) != loaded.Quarters() {
		t.Fatal("figure 5")
	}
	if ps := loaded.TopPublisherSeries(10); len(ps.Values) != 10 {
		t.Fatal("figure 6")
	}
	co, err := loaded.CoReport(ids)
	if err != nil || !co.Jaccard.IsSymmetric(1e-12) {
		t.Fatalf("co-report: %v", err)
	}
	if fr := loaded.FollowReport(ids); len(fr.ColSums) != 10 {
		t.Fatal("follow report")
	}
	cr, err := loaded.CountryReport()
	if err != nil || total(cr.Cross.Data) == 0 {
		t.Fatalf("country report: %v", err)
	}
	if rows := loaded.PublisherDelays(ids); len(rows) != 10 {
		t.Fatal("table VIII")
	}
	if dd := loaded.DelayDistribution(); len(dd.PerSource) == 0 {
		t.Fatal("figure 9")
	}
	if qd := loaded.QuarterlyDelays(); len(qd.Average) != loaded.Quarters() {
		t.Fatal("figure 10")
	}
	if s := loaded.SlowArticlesPerQuarter(); len(s.Values) != loaded.Quarters() {
		t.Fatal("figure 11")
	}

	// Table II defects surfaced through the report.
	if loaded.Report().Total() == 0 {
		t.Fatal("no defects recorded")
	}

	// Worker pinning is observable and does not change results.
	one, err := loaded.WithWorkers(1).CountryReport()
	if err != nil {
		t.Fatal(err)
	}
	for i := range one.Cross.Data {
		if one.Cross.Data[i] != cr.Cross.Data[i] {
			t.Fatal("worker count changed results")
		}
	}
}

func TestClusterSourcesFindsMediaGroup(t *testing.T) {
	corpus, err := GenerateCorpus(SmallCorpus())
	if err != nil {
		t.Fatal(err)
	}
	ds, err := BuildDataset(corpus)
	if err != nil {
		t.Fatal(err)
	}
	ids, _ := ds.TopPublishers(30)
	res, err := ds.ClusterSources(ids, MCLOptions{Inflation: 1.6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) == 0 {
		t.Fatal("no clusters")
	}
	// The co-owned media group members should mostly land in one cluster.
	groupNames := map[string]bool{}
	for i := 0; i < corpus.World.Cfg.MediaGroupSize; i++ {
		groupNames[corpus.World.Sources[i].Name] = true
	}
	best := 0
	for _, cl := range res.Clusters {
		n := 0
		for _, pos := range cl {
			if groupNames[ds.SourceName(ids[pos])] {
				n++
			}
		}
		if n > best {
			best = n
		}
	}
	if best < corpus.World.Cfg.MediaGroupSize/2 {
		t.Fatalf("largest group overlap %d of %d", best, corpus.World.Cfg.MediaGroupSize)
	}
}

func TestSourceGraphAnalysis(t *testing.T) {
	corpus, err := GenerateCorpus(SmallCorpus())
	if err != nil {
		t.Fatal(err)
	}
	ds, err := BuildDataset(corpus)
	if err != nil {
		t.Fatal(err)
	}
	ids, _ := ds.TopPublishers(30)
	g, err := ds.SourceGraph(ids, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 30 || g.Edges() == 0 {
		t.Fatalf("graph n=%d edges=%d", g.N, g.Edges())
	}
	comps := g.Components()
	if len(comps) == 0 || len(comps[0]) < 8 {
		t.Fatalf("no big component: %v", comps)
	}
	pr := g.PageRank(PageRankOptions{})
	var sum float64
	for _, v := range pr {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("pagerank sum %v", sum)
	}
	// The most central source should be a co-owned group member (they
	// co-report with everything).
	best := 0
	for i := range pr {
		if pr[i] > pr[best] {
			best = i
		}
	}
	groupNames := map[string]bool{}
	for i := 0; i < corpus.World.Cfg.MediaGroupSize; i++ {
		groupNames[corpus.World.Sources[i].Name] = true
	}
	if !groupNames[ds.SourceName(ids[best])] {
		t.Logf("most central source %s is not a group member (acceptable but unusual)", ds.SourceName(ids[best]))
	}
}

func TestGKGFacade(t *testing.T) {
	corpus, err := GenerateCorpus(SmallCorpus())
	if err != nil {
		t.Fatal(err)
	}
	ds, err := BuildDataset(corpus)
	if err != nil {
		t.Fatal(err)
	}
	if !ds.HasGKG() {
		t.Fatal("small corpus should carry GKG")
	}
	top, err := ds.TopThemes(5)
	if err != nil || len(top) != 5 {
		t.Fatalf("top themes: %v %v", top, err)
	}
	trends, err := ds.ThemeTrends([]string{top[0].Theme})
	if err != nil || len(trends) != 1 {
		t.Fatalf("trends: %v", err)
	}
	co, err := ds.ThemeCooccurrences(4)
	if err != nil || len(co.Themes) != 4 {
		t.Fatalf("cooccurrence: %v", err)
	}
	labels, share, err := ds.TranslatedShare()
	if err != nil || len(labels) != len(share) {
		t.Fatalf("translated share: %v", err)
	}
	tone := ds.ToneByCountry([]string{"UK", "US"})
	if len(tone) != 2 {
		t.Fatal("tone series")
	}
}

func TestBaselinesAgreeWithEngine(t *testing.T) {
	corpus, err := GenerateCorpus(SmallCorpus())
	if err != nil {
		t.Fatal(err)
	}
	ds, err := BuildDataset(corpus)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := ds.CountryReport()
	if err != nil {
		t.Fatal(err)
	}
	rs := ds.RowStoreBaseline()
	got := rs.CrossCountry()
	for i := range got.Data {
		if got.Data[i] != cr.Cross.Data[i] {
			t.Fatal("row-store baseline disagrees")
		}
	}
}

func TestErrorPaths(t *testing.T) {
	if _, err := OpenBinary(filepath.Join(t.TempDir(), "missing.gdmb")); err == nil {
		t.Fatal("opening a missing binary should fail")
	}
	if _, err := ConvertRaw(t.TempDir()); err == nil {
		t.Fatal("converting an empty directory should fail")
	}
	bad := SmallCorpus()
	bad.Sources = 1
	if _, err := GenerateCorpus(bad); err == nil {
		t.Fatal("invalid config should fail")
	}
	corpus, err := GenerateCorpus(SmallCorpus())
	if err != nil {
		t.Fatal(err)
	}
	ds, err := BuildDataset(corpus)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.SaveBinary(filepath.Join(t.TempDir(), "no", "such", "dir", "x.gdmb")); err == nil {
		t.Fatal("saving into a missing directory should fail")
	}
	// Empty and inverted windows behave sanely.
	if w := ds.Window(20300101000000, 20310101000000); w.WindowArticles() != 0 {
		t.Fatal("post-archive window should be empty")
	}
	if w := ds.Window(20150218000000, 20150218000000); w.WindowArticles() != 0 {
		t.Fatal("zero-width window should be empty")
	}
}

func TestWhereQueries(t *testing.T) {
	corpus, err := GenerateCorpus(SmallCorpus())
	if err != nil {
		t.Fatal(err)
	}
	ds, err := BuildDataset(corpus)
	if err != nil {
		t.Fatal(err)
	}
	all, err := ds.CountWhere("")
	if err != nil || all != int64(ds.Articles()) {
		t.Fatalf("count all: %d %v", all, err)
	}
	slowUK, err := ds.CountWhere("sourcecountry=UK and delay>96")
	if err != nil {
		t.Fatal(err)
	}
	if slowUK == 0 || slowUK >= all {
		t.Fatalf("filtered count %d of %d", slowUK, all)
	}
	if _, err := ds.CountWhere("bogus=1"); err == nil {
		t.Fatal("bad expression accepted")
	}
	series, err := ds.ArticlesPerQuarterWhere("delay>96")
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, v := range series.Values {
		sum += v
	}
	slow, _ := ds.CountWhere("delay>96")
	if sum != slow {
		t.Fatalf("series sums to %d want %d", sum, slow)
	}
	ids, counts, err := ds.TopPublishersWhere("sourcecountry=UK", 5)
	if err != nil || len(ids) == 0 {
		t.Fatalf("filtered publishers: %v", err)
	}
	for i, id := range ids {
		if CountryFromDomain(ds.SourceName(id)) != CountryIndex("UK") {
			t.Fatalf("publisher %d not UK", i)
		}
		if i > 0 && counts[i] > counts[i-1] {
			t.Fatal("not descending")
		}
	}
}

func TestFollowupQueries(t *testing.T) {
	corpus, err := GenerateCorpus(SmallCorpus())
	if err != nil {
		t.Fatal(err)
	}
	ds, err := BuildDataset(corpus)
	if err != nil {
		t.Fatal(err)
	}
	fr := ds.FirstReports()
	if fr.Events == 0 || fr.Median < 1 {
		t.Fatalf("first reports %+v", fr)
	}
	rc := ds.Repeats(5)
	if rc.RepeatArticles == 0 {
		t.Fatal("no repeats")
	}
	sg := ds.SpeedGroups()
	if sg.Sources[1] == 0 {
		t.Fatal("no average-speed sources")
	}
}

func TestSourceNameLookupRoundTrip(t *testing.T) {
	corpus, err := GenerateCorpus(SmallCorpus())
	if err != nil {
		t.Fatal(err)
	}
	ds, err := BuildDataset(corpus)
	if err != nil {
		t.Fatal(err)
	}
	ids, _ := ds.TopPublishers(3)
	for _, id := range ids {
		name := ds.SourceName(id)
		if ds.SourceID(name) != id {
			t.Fatalf("lookup round trip failed for %q", name)
		}
	}
	if ds.SourceID("no-such-domain.example") != -1 {
		t.Fatal("unknown domain should be -1")
	}
}

// total sums a vector or a matrix's backing cells.
func total[T int64 | float64](xs []T) T {
	var s T
	for _, v := range xs {
		s += v
	}
	return s
}
