package gdeltmine

import (
	"fmt"
	"reflect"
	"testing"
)

// TestDatasetWindowScope pins the lists in Window's doc comment: under a
// one-quarter window every windowed method's answer changes, and every
// archive-wide method returns its unwindowed answer.
func TestDatasetWindowScope(t *testing.T) {
	corpus, err := GenerateCorpus(SmallCorpus())
	if err != nil {
		t.Fatal(err)
	}
	ds, err := BuildDataset(corpus)
	if err != nil {
		t.Fatal(err)
	}
	from, err := ParseTimestamp("20160101000000")
	if err != nil {
		t.Fatal(err)
	}
	to, err := ParseTimestamp("20160401000000")
	if err != nil {
		t.Fatal(err)
	}
	win := ds.Window(from, to)
	if n := win.WindowArticles(); n == 0 || n == ds.Articles() {
		t.Fatalf("window holds %d of %d articles; want a proper subset", n, ds.Articles())
	}
	panel, _ := ds.TopPublishers(8)
	top, err := ds.TopThemes(2)
	if err != nil {
		t.Fatal(err)
	}
	themes := []string{top[0].Theme, top[1].Theme}
	// must drops an error, failing the test on one: every call here is
	// well-formed.
	must := func(v any, err error) any {
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	cases := []struct {
		name     string
		windowed bool
		run      func(d *Dataset) any
	}{
		{"WindowArticles", true, func(d *Dataset) any { return d.WindowArticles() }},
		{"TopPublishers", true, func(d *Dataset) any { ids, n := d.TopPublishers(10); return []any{ids, n} }},
		{"ArticlesPerQuarter", true, func(d *Dataset) any { return d.ArticlesPerQuarter() }},
		{"SlowArticlesPerQuarter", true, func(d *Dataset) any { return d.SlowArticlesPerQuarter() }},
		{"TopPublisherSeries", true, func(d *Dataset) any { return d.TopPublisherSeries(5) }},
		{"CountWhere", true, func(d *Dataset) any { return must(d.CountWhere("delay>4")) }},
		{"ArticlesPerQuarterWhere", true, func(d *Dataset) any { return must(d.ArticlesPerQuarterWhere("delay>4")) }},
		{"TopPublishersWhere", true, func(d *Dataset) any {
			ids, n, err := d.TopPublishersWhere("delay>4", 5)
			return must([]any{ids, n}, err)
		}},
		{"CountryReport", true, func(d *Dataset) any { return must(d.CountryReport()) }},
		{"ToneByCountry", true, func(d *Dataset) any { return d.ToneByCountry([]string{"UK", "US"}) }},

		{"Stats", false, func(d *Dataset) any { return d.Stats() }},
		{"TopEvents", false, func(d *Dataset) any { return d.TopEvents(10) }},
		{"EventSizes", false, func(d *Dataset) any {
			x := d.EventSizes(1)
			return []any{x.Counts, x.Fit, fmt.Sprint(x.FitErr)}
		}},
		{"ActiveSourcesPerQuarter", false, func(d *Dataset) any { return d.ActiveSourcesPerQuarter() }},
		{"EventsPerQuarter", false, func(d *Dataset) any { return d.EventsPerQuarter() }},
		{"QuarterlyDelays", false, func(d *Dataset) any { return d.QuarterlyDelays() }},
		{"DelayDistribution", false, func(d *Dataset) any { return d.DelayDistribution() }},
		{"PublisherDelays", false, func(d *Dataset) any { return d.PublisherDelays(panel) }},
		{"CoReport", false, func(d *Dataset) any { return must(d.CoReport(panel)) }},
		{"CoReportSliced", false, func(d *Dataset) any {
			co, _, err := d.CoReportSliced(panel)
			return must(co, err)
		}},
		{"FollowReport", false, func(d *Dataset) any { return d.FollowReport(panel) }},
		{"ClusterSources", false, func(d *Dataset) any { return must(d.ClusterSources(panel, MCLOptions{})) }},
		{"SourceGraph", false, func(d *Dataset) any { return must(d.SourceGraph(panel, 0.01)) }},
		{"FirstReports", false, func(d *Dataset) any { return d.FirstReports() }},
		{"Repeats", false, func(d *Dataset) any { return d.Repeats(5) }},
		{"SpeedGroups", false, func(d *Dataset) any { return d.SpeedGroups() }},
		{"FastSpreadingEvents", false, func(d *Dataset) any { return d.FastSpreadingEvents(8, 3, 10) }},
		{"TopThemes", false, func(d *Dataset) any { return must(d.TopThemes(5)) }},
		{"ThemeTrends", false, func(d *Dataset) any { return must(d.ThemeTrends(themes)) }},
		{"ThemeCooccurrences", false, func(d *Dataset) any { return must(d.ThemeCooccurrences(4)) }},
		{"PersonsForTheme", false, func(d *Dataset) any { return must(d.PersonsForTheme(themes[0], 5)) }},
		{"TranslatedShare", false, func(d *Dataset) any {
			labels, share, err := d.TranslatedShare()
			return must([]any{labels, share}, err)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			changed := !reflect.DeepEqual(c.run(ds), c.run(win))
			switch {
			case c.windowed && !changed:
				t.Errorf("%s is documented as windowed, but a one-quarter window left its answer unchanged", c.name)
			case !c.windowed && changed:
				t.Errorf("%s is documented as archive-wide, but a one-quarter window changed its answer", c.name)
			}
		})
	}
}
