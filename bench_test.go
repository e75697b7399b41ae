// Benchmarks regenerating every table and figure of the paper's evaluation
// over the Bench corpus (~400 sources, ~440k articles), plus the baseline
// and ablation comparisons DESIGN.md indexes (X1-X3). Run with:
//
//	go test -bench=. -benchmem
package gdeltmine

import (
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"gdeltmine/internal/matrix"
	"gdeltmine/internal/mcl"
)

var (
	benchOnce   sync.Once
	benchDS     *Dataset
	benchCorpus *Corpus
	benchRawDir string
	benchErr    error
)

// benchSetup generates the bench corpus, writes it as a raw dataset (for
// the conversion and re-scan benches), and builds the in-memory store.
func benchSetup(b *testing.B) *Dataset {
	b.Helper()
	benchOnce.Do(func() {
		benchCorpus, benchErr = GenerateCorpus(BenchCorpus())
		if benchErr != nil {
			return
		}
		benchRawDir, benchErr = os.MkdirTemp("", "gdeltmine-bench-raw-")
		if benchErr != nil {
			return
		}
		if _, benchErr = WriteRawDataset(benchCorpus, benchRawDir); benchErr != nil {
			return
		}
		benchDS, benchErr = BuildDataset(benchCorpus)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchDS
}

func reportRows(b *testing.B, ds *Dataset) {
	b.ReportMetric(float64(ds.Articles()*b.N)/b.Elapsed().Seconds(), "rows/s")
}

// --- Tables ---

func BenchmarkTable1DatasetStats(b *testing.B) {
	ds := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st := ds.Stats(); st.Articles == 0 {
			b.Fatal("empty stats")
		}
	}
}

func BenchmarkTable2Conversion(b *testing.B) {
	benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := ConvertRaw(benchRawDir)
		if err != nil {
			b.Fatal(err)
		}
		if ds.Report().Total() == 0 {
			b.Fatal("no defects found")
		}
	}
}

func BenchmarkTable3TopEvents(b *testing.B) {
	ds := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if top := ds.TopEvents(10); len(top) != 10 {
			b.Fatal("top events")
		}
	}
}

func BenchmarkTable4FollowReporting(b *testing.B) {
	ds := benchSetup(b)
	ids, _ := ds.TopPublishers(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fr := ds.FollowReport(ids); len(fr.ColSums) != 10 {
			b.Fatal("follow report")
		}
	}
	reportRows(b, ds)
}

func BenchmarkTable5CountryCoReporting(b *testing.B) {
	ds := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cr, err := ds.CountryReport()
		if err != nil || total(cr.CoReporting.Data) == 0 {
			b.Fatalf("country query: %v", err)
		}
	}
	reportRows(b, ds)
}

func BenchmarkTable6CrossReporting(b *testing.B) {
	ds := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cr, err := ds.CountryReport()
		if err != nil || total(cr.Cross.Data) == 0 {
			b.Fatalf("country query: %v", err)
		}
	}
	reportRows(b, ds)
}

func BenchmarkTable7CrossReportingPct(b *testing.B) {
	ds := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cr, err := ds.CountryReport()
		if err != nil || total(cr.Fractions.Data) == 0 {
			b.Fatalf("country query: %v", err)
		}
	}
}

func BenchmarkTable8PublisherDelay(b *testing.B) {
	ds := benchSetup(b)
	ids, _ := ds.TopPublishers(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := ds.PublisherDelays(ids); len(rows) != 10 {
			b.Fatal("delays")
		}
	}
}

// --- Figures ---

func BenchmarkFigure2EventSizeHistogram(b *testing.B) {
	ds := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := ds.EventSizes(2); d.FitErr != nil {
			b.Fatal(d.FitErr)
		}
	}
}

func BenchmarkFigure3ActiveSources(b *testing.B) {
	ds := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := ds.ActiveSourcesPerQuarter(); len(s.Values) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFigure4Events(b *testing.B) {
	ds := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := ds.EventsPerQuarter(); len(s.Values) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFigure5Articles(b *testing.B) {
	ds := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := ds.ArticlesPerQuarter(); len(s.Values) == 0 {
			b.Fatal("empty")
		}
	}
	reportRows(b, ds)
}

func BenchmarkFigure6TopPublisherSeries(b *testing.B) {
	ds := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ps := ds.TopPublisherSeries(10); len(ps.Values) != 10 {
			b.Fatal("series")
		}
	}
}

func BenchmarkFigure7Follow50(b *testing.B) {
	ds := benchSetup(b)
	ids, _ := ds.TopPublishers(50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fr := ds.FollowReport(ids); len(fr.ColSums) != 50 {
			b.Fatal("follow 50")
		}
	}
}

func BenchmarkFigure8Cross50(b *testing.B) {
	ds := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cr, err := ds.CountryReport()
		if err != nil || len(cr.TopReported) < 50 {
			b.Fatalf("cross 50: %v", err)
		}
	}
}

func BenchmarkFigure9DelayDistribution(b *testing.B) {
	ds := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dd := ds.DelayDistribution(); len(dd.PerSource) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFigure10QuarterlyDelay(b *testing.B) {
	ds := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if qd := ds.QuarterlyDelays(); len(qd.Average) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFigure11SlowArticles(b *testing.B) {
	ds := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := ds.SlowArticlesPerQuarter(); len(s.Values) == 0 {
			b.Fatal("empty")
		}
	}
	reportRows(b, ds)
}

// BenchmarkFigure12Scaling sweeps the worker count of the aggregated
// country query — the strong-scaling experiment. On a multicore host the
// per-op time drops with workers; past the core count it flattens.
func BenchmarkFigure12Scaling(b *testing.B) {
	ds := benchSetup(b)
	maxW := runtime.GOMAXPROCS(0)
	if maxW < 8 {
		maxW = 8
	}
	for w := 1; ; w *= 2 {
		if w > maxW {
			w = maxW
		}
		pinned := ds.WithWorkers(w)
		b.Run(benchName("workers", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pinned.CountryReport(); err != nil {
					b.Fatal(err)
				}
			}
			reportRows(b, ds)
		})
		if w == maxW {
			break
		}
	}
}

func benchName(prefix string, v int) string {
	const digits = "0123456789"
	if v == 0 {
		return prefix + "=0"
	}
	var buf [8]byte
	pos := len(buf)
	for v > 0 {
		pos--
		buf[pos] = digits[v%10]
		v /= 10
	}
	return prefix + "=" + string(buf[pos:])
}

// --- Baselines and ablations (X1-X3) ---

// BenchmarkEngineColumnScan and BenchmarkBaselineRowScan /
// BenchmarkBaselineRawRescan reproduce the Section II claim: the
// specialized binary in-memory system outruns generic row-at-a-time and
// re-parse-the-archive access by large factors.
func BenchmarkEngineColumnScan(b *testing.B) {
	ds := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ds.CountryReport(); err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, ds)
}

func BenchmarkBaselineRowScan(b *testing.B) {
	ds := benchSetup(b)
	rs := ds.RowStoreBaseline()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m := rs.CrossCountry(); total(m.Data) == 0 {
			b.Fatal("empty")
		}
	}
	reportRows(b, ds)
}

func BenchmarkBaselineRawRescan(b *testing.B) {
	ds := benchSetup(b)
	rr, err := OpenRawRescan(benchRawDir)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rr.CrossCountry(); err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, ds)
}

// BenchmarkSparseAssembly measures the Section VI-B alternative strategy:
// assembling a global co-reporting matrix from per-time-span sparse pieces.
func BenchmarkSparseAssembly(b *testing.B) {
	ds := benchSetup(b)
	ids, _ := ds.TopPublishers(50)
	// Build one CSR piece per year from per-year co-reporting runs.
	var pieces []*matrix.CSR
	co, err := ds.CoReport(ids)
	if err != nil {
		b.Fatal(err)
	}
	full := matrix.FromDense(co.Jaccard, 0)
	for i := 0; i < 5; i++ {
		pieces = append(pieces, full)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum, err := matrix.AssembleCSR(pieces)
		if err != nil || sum.NNZ() == 0 {
			b.Fatalf("assembly: %v", err)
		}
	}
}

// BenchmarkMCL measures Markov clustering over the top-50 co-reporting
// matrix (the media-group discovery of Section VI-B).
func BenchmarkMCL(b *testing.B) {
	ds := benchSetup(b)
	ids, _ := ds.TopPublishers(50)
	co, err := ds.CoReport(ids)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := mcl.Cluster(co.Jaccard, mcl.Options{Inflation: 1.6})
		if err != nil || len(res.Clusters) == 0 {
			b.Fatalf("mcl: %v", err)
		}
	}
}

// --- Extensions: GKG, sliced co-reporting, graph analytics, windowed scans ---

func BenchmarkGKGTopThemes(b *testing.B) {
	ds := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		top, err := ds.TopThemes(10)
		if err != nil || len(top) == 0 {
			b.Fatalf("themes: %v", err)
		}
	}
}

func BenchmarkGKGThemeCooccurrence(b *testing.B) {
	ds := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		co, err := ds.ThemeCooccurrences(10)
		if err != nil || total(co.Counts.Data) == 0 {
			b.Fatalf("cooccurrence: %v", err)
		}
	}
}

func BenchmarkCoReportDense(b *testing.B) {
	ds := benchSetup(b)
	ids, _ := ds.TopPublishers(50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ds.CoReport(ids); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoReportSliced(b *testing.B) {
	ds := benchSetup(b)
	ids, _ := ds.TopPublishers(50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ds.CoReportSliced(ids); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSourceGraphPageRank(b *testing.B) {
	ds := benchSetup(b)
	ids, _ := ds.TopPublishers(50)
	g, err := ds.SourceGraph(ids, 0.005)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := g.PageRank(PageRankOptions{})
		if len(pr) != g.N {
			b.Fatal("rank size")
		}
	}
}

func BenchmarkWildfireScan(b *testing.B) {
	ds := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fires := ds.FastSpreadingEvents(8, 5, 10); len(fires) == 0 {
			b.Fatal("no wildfires in bench corpus")
		}
	}
	reportRows(b, ds)
}

func BenchmarkWindowedQuarterScan(b *testing.B) {
	ds := benchSetup(b)
	// One year's window.
	win := ds.Window(20160101000000, 20170101000000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := win.ArticlesPerQuarter(); len(s.Values) == 0 {
			b.Fatal("empty")
		}
	}
	b.ReportMetric(float64(win.WindowArticles()*b.N)/b.Elapsed().Seconds(), "rows/s")
}

// --- Pipeline throughput ---

func BenchmarkGenerateCorpus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := GenerateCorpus(SmallCorpus())
		if err != nil {
			b.Fatal(err)
		}
		if len(c.Mentions) == 0 {
			b.Fatal("empty corpus")
		}
	}
}

func BenchmarkBinarySaveLoad(b *testing.B) {
	ds := benchSetup(b)
	path := filepath.Join(b.TempDir(), "bench.gdmb")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ds.SaveBinary(path); err != nil {
			b.Fatal(err)
		}
		loaded, err := OpenBinary(path)
		if err != nil {
			b.Fatal(err)
		}
		if loaded.Articles() != ds.Articles() {
			b.Fatal("row loss")
		}
	}
	reportRows(b, ds)
}
