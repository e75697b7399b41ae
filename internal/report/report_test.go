package report

import (
	"strings"
	"testing"

	"gdeltmine/internal/convert"
	"gdeltmine/internal/engine"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/queries"
	"gdeltmine/internal/registry"
)

func TestInt(t *testing.T) {
	cases := map[int64]string{
		0: "0", 5: "5", 999: "999", 1000: "1,000", 1234567: "1,234,567",
		1090310118: "1,090,310,118", -4500: "-4,500",
	}
	for in, want := range cases {
		if got := Int(in); got != want {
			t.Fatalf("Int(%d) = %q want %q", in, got, want)
		}
	}
}

func TestF(t *testing.T) {
	if F(0.11343, 3) != "0.113" || F(39.674, 2) != "39.67" {
		t.Fatal("float formatting")
	}
}

func TestTableLayout(t *testing.T) {
	out := Table("Title", []string{"A", "Bee"}, [][]string{{"1", "2"}, {"333", "4"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines %d: %q", len(lines), out)
	}
	if lines[0] != "Title" {
		t.Fatalf("title %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "A    Bee") {
		t.Fatalf("header %q", lines[1])
	}
	if !strings.Contains(lines[2], "---") {
		t.Fatalf("separator %q", lines[2])
	}
}

func TestMatrixLayout(t *testing.T) {
	out := Matrix("M", []string{"r1", "r2"}, []string{"c1"}, func(i, j int) string {
		return F(float64(i+j), 1)
	})
	if !strings.Contains(out, "r2") || !strings.Contains(out, "c1") || !strings.Contains(out, "1.0") {
		t.Fatalf("matrix render %q", out)
	}
}

func TestSeriesCSV(t *testing.T) {
	out := Series("t", []string{"q1", "q2"}, map[string][]float64{"x": {1, 2}, "y": {3}}, []string{"x", "y"})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "# t" || lines[1] != "label,x,y" {
		t.Fatalf("header %q", lines[:2])
	}
	if lines[2] != "q1,1,3" || lines[3] != "q2,2," {
		t.Fatalf("rows %q", lines[2:])
	}
}

func TestFigure2FitErrorBranch(t *testing.T) {
	d := queries.EventSizeDistribution{Counts: []int64{0, 1}}
	d.FitErr = errFake{}
	out := Figure2(d)
	if !strings.Contains(out, "fit failed") {
		t.Fatalf("render %q", out)
	}
}

type errFake struct{}

func (errFake) Error() string { return "synthetic failure" }

func TestTableIIIMissingURL(t *testing.T) {
	out := TableIII([]queries.TopEvent{{Mentions: 5, EventID: 42, SourceURL: ""}})
	if !strings.Contains(out, "source URL missing") {
		t.Fatalf("render %q", out)
	}
}

func TestSeriesEmptyLabels(t *testing.T) {
	out := Series("", nil, map[string][]float64{"x": nil}, []string{"x"})
	if !strings.HasPrefix(out, "label,x\n") {
		t.Fatalf("render %q", out)
	}
}

func TestPaperRenderersEndToEnd(t *testing.T) {
	c, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	res, err := convert.FromCorpus(c)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(res.DB)

	t1 := TableI(queries.Dataset(e))
	if !strings.Contains(t1, "Articles per event (weighted average)") {
		t.Fatalf("Table I: %q", t1)
	}
	t2 := TableII(res.DB.Report)
	if !strings.Contains(t2, "Missing event source URL") {
		t.Fatalf("Table II: %q", t2)
	}
	t3 := TableIII(queries.TopEvents(e, 10))
	if !strings.Contains(t3, "Mentions") || len(strings.Split(t3, "\n")) < 12 {
		t.Fatalf("Table III: %q", t3)
	}
	ids, _ := queries.TopPublishers(e, 10)
	fr := queries.FollowReport(e, ids)
	t4 := TableIV(fr)
	if !strings.Contains(t4, "Sum") || !strings.Contains(t4, "Publishers: A=") {
		t.Fatalf("Table IV: %q", t4)
	}
	cr, err := queries.CountryQuery(e)
	if err != nil {
		t.Fatal(err)
	}
	t5 := TableV(cr, 10)
	if !strings.Contains(t5, "United Kingdom") {
		t.Fatalf("Table V: %q", t5)
	}
	t6 := TableVI(cr, 10)
	if !strings.Contains(t6, "United States") {
		t.Fatalf("Table VI: %q", t6)
	}
	t7 := TableVII(cr, 10)
	if !strings.Contains(t7, ".") {
		t.Fatalf("Table VII: %q", t7)
	}
	t8 := TableVIII(queries.PublisherDelays(e, ids))
	if !strings.Contains(t8, "Median") {
		t.Fatalf("Table VIII: %q", t8)
	}

	f2 := Figure2(queries.EventSizes(e, 1))
	if !strings.Contains(f2, "alpha=") {
		t.Fatalf("Figure 2: %q", f2)
	}
	f3 := FigureSeries("Figure 3", queries.ActiveSourcesPerQuarter(e))
	if !strings.Contains(f3, "2015Q1") {
		t.Fatalf("Figure 3: %q", f3)
	}
	f6 := Figure6(queries.TopPublisherSeries(e, 10))
	if !strings.Contains(f6, "2019Q4") {
		t.Fatalf("Figure 6: %q", f6)
	}
	ids50, _ := queries.TopPublishers(e, 50)
	f7 := Figure7(queries.FollowReport(e, ids50))
	if len(strings.Split(f7, "\n")) < 52 {
		t.Fatalf("Figure 7 too short")
	}
	f8 := Figure8(cr, 50)
	if !strings.Contains(f8, "US") {
		t.Fatalf("Figure 8: %q", f8)
	}
	f9 := Figure9(queries.DelayDistributionAll(e))
	if !strings.Contains(f9, "min,average,median,max") {
		t.Fatalf("Figure 9: %q", f9)
	}
	f10 := Figure10(queries.QuarterlyDelays(e))
	if !strings.Contains(f10, "average,median") {
		t.Fatalf("Figure 10: %q", f10)
	}
	slow, err := registry.MustLookup("series-slow-articles").Run(e, registry.Params{})
	if err != nil {
		t.Fatal(err)
	}
	f11 := FigureSeries("Figure 11", slow.(queries.QuarterlySeries))
	if !strings.Contains(f11, "value") {
		t.Fatalf("Figure 11: %q", f11)
	}
}
