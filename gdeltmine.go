// Package gdeltmine is a high-performance in-memory mining system for
// GDELT 2.0 news event data, a from-scratch Go reproduction of "A System
// for High Performance Mining on GDELT Data" (IPDPS Workshops 2020).
//
// The pipeline has three stages, mirroring the paper's architecture:
//
//  1. Acquire a raw dataset: either real-format GDELT chunk files on disk
//     or a synthetic corpus from the built-in world generator
//     (GenerateCorpus / WriteRawDataset).
//  2. Convert once: the preprocessing step parses, cleans and validates the
//     raw tab-separated files and produces an indexed binary database
//     (ConvertRaw + SaveBinary), tallying the defects of the paper's
//     Table II on the way.
//  3. Analyze: load the binary database fully into memory (OpenBinary) and
//     run parallel aggregated queries against the read-only columnar store
//     — co-reporting, follow-reporting, country cross-reporting, publishing
//     delay statistics and quarterly trend series.
//
// The Dataset type is the analysis handle; its methods implement every
// experiment in the paper's evaluation.
package gdeltmine

import (
	"context"

	"gdeltmine/internal/baseline"
	"gdeltmine/internal/binfmt"
	"gdeltmine/internal/convert"
	"gdeltmine/internal/dist"
	"gdeltmine/internal/engine"
	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/graph"
	"gdeltmine/internal/matrix"
	"gdeltmine/internal/mcl"
	"gdeltmine/internal/queries"
	"gdeltmine/internal/store"
)

// Re-exported configuration and result types. The aliases let applications
// use the full data model through the public package.
type (
	// CorpusConfig parameterizes the synthetic GDELT world generator.
	CorpusConfig = gen.Config
	// Corpus is a generated synthetic dataset.
	Corpus = gen.Corpus
	// WriteResult summarizes a raw dataset written to disk.
	WriteResult = gen.WriteResult
	// BuildStats reports ingestion statistics from a conversion.
	BuildStats = store.BuildStats
	// ValidationReport tallies the Table II defect classes.
	ValidationReport = gdelt.ValidationReport
	// DatasetStats is the Table I summary.
	DatasetStats = queries.DatasetStats
	// TopEvent is one row of Table III.
	TopEvent = queries.TopEvent
	// EventSizeDistribution is the Figure 2 result.
	EventSizeDistribution = queries.EventSizeDistribution
	// QuarterlySeries is a per-quarter series (Figures 3-5, 11).
	QuarterlySeries = queries.QuarterlySeries
	// PublisherSeries is the Figure 6 result.
	PublisherSeries = queries.PublisherSeries
	// CoReporting is the Jaccard co-reporting result (Section VI-B).
	CoReporting = queries.CoReporting
	// FollowReporting is the Table IV / Figure 7 result.
	FollowReporting = queries.FollowReporting
	// CountryReport is the aggregated country query result (Tables V-VII).
	CountryReport = queries.CountryReport
	// SourceDelayStats is one publisher's row of Table VIII.
	SourceDelayStats = queries.SourceDelayStats
	// DelayDistribution is the Figure 9 result.
	DelayDistribution = queries.DelayDistribution
	// QuarterlyDelay is the Figure 10 result.
	QuarterlyDelay = queries.QuarterlyDelay
	// Wildfire is a fast-spreading event candidate.
	Wildfire = queries.Wildfire
	// MCLOptions tunes Markov clustering.
	MCLOptions = mcl.Options
	// MCLResult is a Markov clustering of a similarity matrix.
	MCLResult = mcl.Result
	// Matrix is a dense float64 matrix.
	Matrix = matrix.Dense
	// CountMatrix is a dense int64 matrix.
	CountMatrix = matrix.Int64
)

// Timestamp is a GDELT timestamp in YYYYMMDDHHMMSS form.
type Timestamp = gdelt.Timestamp

// ParseTimestamp parses a 14-digit YYYYMMDDHHMMSS string.
func ParseTimestamp(s string) (Timestamp, error) { return gdelt.ParseTimestamp(s) }

// Country describes one country: FIPS code, display name and the TLD used
// for source attribution.
type Country = gdelt.Country

// Countries is the country table; CountryReport matrices are indexed by
// position in this slice.
var Countries = gdelt.Countries

// CountryIndex returns the position of a FIPS code in Countries, or -1.
func CountryIndex(fips string) int { return gdelt.CountryIndex(fips) }

// CountryFromDomain attributes a news source domain to a country by its
// top-level domain (the paper's Section VI-C heuristic), returning an index
// into Countries or -1.
func CountryFromDomain(domain string) int { return gdelt.CountryFromDomain(domain) }

// Preset corpus configurations.
var (
	// SmallCorpus is a test-sized synthetic corpus (~45k articles).
	SmallCorpus = gen.Small
	// BenchCorpus is the benchmark corpus (~440k articles).
	BenchCorpus = gen.Bench
	// StandardCorpus is the full experiment corpus (~4M articles), the
	// scaled-down analogue of the paper's five-year archive.
	StandardCorpus = gen.Standard
)

// GenerateCorpus deterministically generates a synthetic GDELT world.
func GenerateCorpus(cfg CorpusConfig) (*Corpus, error) { return gen.Generate(cfg) }

// WriteRawDataset writes a corpus as raw GDELT-format chunk files plus
// master file list under dir, injecting the configured Table II defects.
func WriteRawDataset(c *Corpus, dir string) (*WriteResult, error) { return gen.WriteRaw(c, dir) }

// Dataset is the loaded in-memory database plus its query engine: the
// analysis handle every experiment runs through.
type Dataset struct {
	db  *store.DB
	eng *engine.Engine
	// Build reports what conversion ingested and dropped.
	Build BuildStats
	// Quarantined lists master-listed chunks the conversion completed
	// without (permanent read failures past the retry budget).
	Quarantined []QuarantinedChunk
}

func newDataset(db *store.DB, stats BuildStats) *Dataset {
	return &Dataset{db: db, eng: engine.New(db), Build: stats}
}

// Engine exposes the dataset's engine view (workers, kind and window
// already applied) for callers that dispatch through the query registry —
// the CLI's registry-driven subcommands and the benchmark harness.
func (d *Dataset) Engine() *engine.Engine { return d.eng }

// ConvertRaw reads a raw GDELT dataset directory (master file list plus
// chunk files), cleans and validates it, and builds the in-memory store.
func ConvertRaw(dir string) (*Dataset, error) {
	return ConvertRawOpts(context.Background(), dir, ConvertOptions{})
}

// ConvertOptions configures a resilient conversion: the chunk source, the
// transient-failure retry schedule, and the quarantine budget.
type ConvertOptions = convert.Options

// QuarantinedChunk records a chunk the conversion completed without.
type QuarantinedChunk = convert.QuarantinedChunk

// ErrTooManyQuarantined is returned (wrapped) when the quarantined chunk
// fraction exceeds ConvertOptions.MaxQuarantineFrac.
var ErrTooManyQuarantined = convert.ErrTooManyQuarantined

// ConvertRawOpts is ConvertRaw with explicit failure handling: transient
// chunk-read errors are retried, permanent ones quarantine the chunk and
// the build degrades gracefully unless the damage exceeds
// opts.MaxQuarantineFrac. Cancelling ctx stops the conversion.
func ConvertRawOpts(ctx context.Context, dir string, opts ConvertOptions) (*Dataset, error) {
	res, err := convert.FromRawDirOpts(ctx, dir, opts)
	if err != nil {
		return nil, err
	}
	ds := newDataset(res.DB, res.Stats)
	ds.Quarantined = res.Quarantined
	return ds, nil
}

// BuildDataset builds the in-memory store directly from a synthetic corpus,
// bypassing the raw-file round trip.
func BuildDataset(c *Corpus) (*Dataset, error) {
	res, err := convert.FromCorpus(c)
	if err != nil {
		return nil, err
	}
	return newDataset(res.DB, res.Stats), nil
}

// SaveBinary writes the dataset in the indexed binary format.
func (d *Dataset) SaveBinary(path string) error { return binfmt.WriteFile(path, d.db) }

// OpenBinary loads a dataset from the indexed binary format.
func OpenBinary(path string) (*Dataset, error) {
	db, err := binfmt.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return newDataset(db, BuildStats{}), nil
}

// WithWorkers returns a view of the dataset whose queries use exactly n
// workers (n <= 0 restores the default of GOMAXPROCS). The strong-scaling
// experiment of Figure 12 sweeps this.
func (d *Dataset) WithWorkers(n int) *Dataset {
	cp := *d
	cp.eng = d.eng.WithWorkers(n)
	return &cp
}

// WithQueryKind returns a view of the dataset whose engine scans are
// attributed to kind in the obs metrics (engine_scans_total{kind=...} and
// friends). Purely observational; query results are unchanged.
func (d *Dataset) WithQueryKind(kind string) *Dataset {
	cp := *d
	cp.eng = d.eng.WithKind(kind)
	return &cp
}

// Window returns a view of the dataset whose mention-scan queries (counts,
// quarterly series, cross-reporting, slow-article counts) cover only
// articles captured in [from, to). Timestamps clamp to the archive span.
// Postings-based queries (co-/follow-reporting, per-source delays) are not
// windowed; use quarterly slicing for those.
func (d *Dataset) Window(from, to Timestamp) *Dataset {
	base := d.db.Meta.Start.IntervalIndex()
	lo := from.IntervalIndex() - base
	hi := to.IntervalIndex() - base
	if lo < 0 {
		lo = 0
	}
	if hi > int64(d.db.Meta.Intervals) {
		hi = int64(d.db.Meta.Intervals)
	}
	cp := *d
	cp.eng = d.eng.WithInterval(int32(lo), int32(hi))
	return &cp
}

// WindowArticles returns the number of articles visible to this view's
// mention-scan queries (the full dataset unless Window was applied).
func (d *Dataset) WindowArticles() int { return d.eng.WindowSize() }

// Report returns the validation report accumulated while converting
// (Table II).
func (d *Dataset) Report() *ValidationReport { return d.db.Report }

// Events returns the number of events in the dataset.
func (d *Dataset) Events() int { return d.db.Events.Len() }

// Articles returns the number of articles (mentions) in the dataset.
func (d *Dataset) Articles() int { return d.db.Mentions.Len() }

// Sources returns the number of distinct news sources.
func (d *Dataset) Sources() int { return d.db.Sources.Len() }

// SourceName returns the domain of a source id.
func (d *Dataset) SourceName(id int32) string { return d.db.Sources.Name(id) }

// SourceID returns the id of a source domain, or -1.
func (d *Dataset) SourceID(name string) int32 { return d.db.Sources.Lookup(name) }

// Quarters returns the number of calendar quarters covered.
func (d *Dataset) Quarters() int { return d.db.NumQuarters() }

// Stats computes the Table I dataset statistics.
func (d *Dataset) Stats() DatasetStats { return queries.Dataset(d.eng) }

// TopEvents returns the k most reported events (Table III).
func (d *Dataset) TopEvents(k int) []TopEvent { return queries.TopEvents(d.eng, k) }

// EventSizes computes the Figure 2 articles-per-event distribution with a
// power-law fit of the tail starting at xmin.
func (d *Dataset) EventSizes(xmin int) EventSizeDistribution { return queries.EventSizes(d.eng, xmin) }

// TopPublishers returns the ids and article counts of the k most productive
// sources (Section VI-A).
func (d *Dataset) TopPublishers(k int) (ids []int32, counts []int64) {
	return queries.TopPublishers(d.eng, k)
}

// ActiveSourcesPerQuarter computes Figure 3.
func (d *Dataset) ActiveSourcesPerQuarter() QuarterlySeries {
	return queries.ActiveSourcesPerQuarter(d.eng)
}

// EventsPerQuarter computes Figure 4.
func (d *Dataset) EventsPerQuarter() QuarterlySeries { return queries.EventsPerQuarter(d.eng) }

// ArticlesPerQuarter computes Figure 5.
func (d *Dataset) ArticlesPerQuarter() QuarterlySeries {
	s, _ := d.quarterSeries("") // an empty where cannot fail
	return s
}

// TopPublisherSeries computes Figure 6 for the k most productive sources.
func (d *Dataset) TopPublisherSeries(k int) PublisherSeries {
	return queries.TopPublisherSeries(d.eng, k)
}

// CoReport computes the Jaccard co-reporting matrix among the given
// sources (Section VI-B).
func (d *Dataset) CoReport(sources []int32) (*CoReporting, error) {
	return queries.CoReport(d.eng, sources)
}

// SliceStats describes a time-sliced co-reporting computation.
type SliceStats = queries.SliceStats

// CoReportSliced computes the same result as CoReport via the Section VI-B
// strategy: per-quarter compressed sparse pair matrices assembled into the
// global co-reporting matrix. The assembly is exact because each event is
// assigned to exactly one time slice.
func (d *Dataset) CoReportSliced(sources []int32) (*CoReporting, *SliceStats, error) {
	return queries.CoReportSliced(d.eng, sources)
}

// FollowReport computes the follow-reporting matrix among the given sources
// (Table IV, Figure 7).
func (d *Dataset) FollowReport(sources []int32) *FollowReporting {
	return queries.FollowReport(d.eng, sources)
}

// CountryReport runs the aggregated country query (Tables V, VI, VII; the
// query whose scaling Figure 12 measures).
func (d *Dataset) CountryReport() (*CountryReport, error) { return queries.CountryQuery(d.eng) }

// PublisherDelays computes per-source delay statistics (Table VIII).
func (d *Dataset) PublisherDelays(sources []int32) []SourceDelayStats {
	return queries.PublisherDelays(d.eng, sources)
}

// DelayDistribution computes the Figure 9 per-source delay distributions.
func (d *Dataset) DelayDistribution() *DelayDistribution {
	return queries.DelayDistributionAll(d.eng)
}

// QuarterlyDelays computes Figure 10.
func (d *Dataset) QuarterlyDelays() QuarterlyDelay { return queries.QuarterlyDelays(d.eng) }

// SlowArticlesPerQuarter computes Figure 11 (articles delayed over 24h).
func (d *Dataset) SlowArticlesPerQuarter() QuarterlySeries {
	s, _ := d.quarterSeries(queries.SlowWhere) // a constant, valid where
	return s
}

// GKG query result types.
type (
	// ThemeCount pairs a GKG theme with its article count.
	ThemeCount = queries.ThemeCount
	// ThemeTrend is a quarterly article-count series for one theme.
	ThemeTrend = queries.ThemeTrend
	// ThemeCooccurrence is the theme co-occurrence matrix result.
	ThemeCooccurrence = queries.ThemeCooccurrence
	// EntityCount pairs a person or organization with its article count.
	EntityCount = queries.EntityCount
)

// ErrNoGKG is returned by theme queries on datasets converted without
// Global Knowledge Graph files.
var ErrNoGKG = queries.ErrNoGKG

// HasGKG reports whether the dataset carries Global Knowledge Graph
// annotations.
func (d *Dataset) HasGKG() bool { return d.db.GKG != nil }

// TopThemes returns the k most frequent GKG themes.
func (d *Dataset) TopThemes(k int) ([]ThemeCount, error) { return queries.TopThemes(d.eng, k) }

// ThemeTrends computes quarterly coverage for the named themes.
func (d *Dataset) ThemeTrends(themes []string) ([]ThemeTrend, error) {
	return queries.ThemeTrends(d.eng, themes)
}

// ThemeCooccurrences computes co-occurrence among the top-k themes.
func (d *Dataset) ThemeCooccurrences(k int) (*ThemeCooccurrence, error) {
	return queries.ThemeCooccurrences(d.eng, k)
}

// PersonsForTheme returns the people most often mentioned alongside a theme.
func (d *Dataset) PersonsForTheme(theme string, k int) ([]EntityCount, error) {
	return queries.PersonsForTheme(d.eng, theme, k)
}

// TranslatedShare computes the per-quarter fraction of machine-translated
// articles (the Section III translingual feed).
func (d *Dataset) TranslatedShare() (labels []string, share []float64, err error) {
	return queries.TranslatedShare(d.eng)
}

// ToneSeries is a per-quarter average-tone series for one publishing
// country.
type ToneSeries = queries.ToneSeries

// ToneByCountry computes the quarterly average document tone of each listed
// publishing country's press (FIPS codes) — the GCAM-style sentiment view.
func (d *Dataset) ToneByCountry(fips []string) []ToneSeries {
	return queries.ToneByCountry(d.eng, fips)
}

// Follow-up analysis types (the Section VI-E research directions).
type (
	// FirstReportLatency is the distribution of each event's first-article
	// delay.
	FirstReportLatency = queries.FirstReportLatency
	// RepeatedCoverage quantifies same-source repeat articles per event.
	RepeatedCoverage = queries.RepeatedCoverage
	// SpeedGroupBreakdown decomposes sources by publishing speed.
	SpeedGroupBreakdown = queries.SpeedGroupBreakdown
)

// CountWhere counts articles matching a filter expression in the query
// language, e.g. "sourcecountry=UK and delay>96 and quarter>=2016Q1".
// See internal/qlang for the grammar and field list.
func (d *Dataset) CountWhere(expr string) (int64, error) {
	vec, err := d.countPlan(expr, "")
	return vec.Count, err
}

// ArticlesPerQuarterWhere computes the quarterly article series restricted
// to a filter expression.
func (d *Dataset) ArticlesPerQuarterWhere(expr string) (QuarterlySeries, error) {
	return d.quarterSeries(expr)
}

// TopPublishersWhere ranks sources by article count within a filter
// expression.
func (d *Dataset) TopPublishersWhere(expr string, k int) (ids []int32, counts []int64, err error) {
	vec, err := d.countPlan(expr, "source")
	if err != nil {
		return nil, nil, err
	}
	ids, counts = queries.TopGroups(vec.Counts, k, false)
	return ids, counts, nil
}

// countPlan runs the ad-hoc plan counting the articles matching a filter
// expression, grouped by group ("" for one count) — the plan the
// registry's count, filtered-series and filtered-publishers kinds run.
func (d *Dataset) countPlan(expr, group string) (queries.AdhocVec, error) {
	spec, err := queries.ParseAdhocSpec(expr, group, "", 0)
	if err != nil {
		return queries.AdhocVec{}, err
	}
	return queries.AdhocVectors(d.eng, spec)
}

// quarterSeries is the quarterly series of the articles matching a filter
// expression.
func (d *Dataset) quarterSeries(expr string) (QuarterlySeries, error) {
	vec, err := d.countPlan(expr, "quarter")
	if err != nil {
		return QuarterlySeries{}, err
	}
	return queries.QuarterSeries(vec, d.db.QuarterLabel), nil
}

// FirstReports computes the first-report latency distribution — how fast
// the world's quickest source was on each event.
func (d *Dataset) FirstReports() FirstReportLatency { return queries.FirstReports(d.eng) }

// Repeats computes repeated same-source coverage statistics; k bounds the
// top-repeater list.
func (d *Dataset) Repeats(k int) RepeatedCoverage { return queries.Repeats(d.eng, k) }

// SpeedGroups classifies every source into the fast / average / slow groups
// of Section VI-E by median delay.
func (d *Dataset) SpeedGroups() SpeedGroupBreakdown { return queries.SpeedGroups(d.eng) }

// FastSpreadingEvents ranks events by distinct early coverage: the top k
// events reported by at least minSources distinct sources within window
// capture intervals (15 minutes each) of the event — candidate digital
// wildfires, the paper's motivating phenomenon.
func (d *Dataset) FastSpreadingEvents(window int32, minSources, k int) []Wildfire {
	return queries.FastSpreadingEvents(d.eng, window, minSources, k)
}

// ClusterSources runs Markov clustering over the co-reporting matrix of the
// given sources and returns clusters of source ids — the paper's suggested
// method for discovering co-owned media groups.
func (d *Dataset) ClusterSources(sources []int32, opt MCLOptions) (*MCLResult, error) {
	co, err := d.CoReport(sources)
	if err != nil {
		return nil, err
	}
	return mcl.Cluster(co.Jaccard, opt)
}

// Graph is an undirected weighted graph over news sources.
type Graph = graph.Graph

// PageRankOptions tunes PageRank centrality.
type PageRankOptions = graph.PageRankOptions

// SourceGraph builds the co-reporting graph of the given sources, keeping
// edges with Jaccard above threshold — the substrate for the network
// analyses (components, centrality) that Section II faults SQL services for
// not supporting.
func (d *Dataset) SourceGraph(sources []int32, threshold float64) (*Graph, error) {
	co, err := d.CoReport(sources)
	if err != nil {
		return nil, err
	}
	return graph.FromSimilarity(co.Jaccard, threshold)
}

// DistCluster is a simulated distributed-memory deployment of the dataset
// (the paper's MPI future work): row-sharded nodes answering queries
// through serialized scatter/gather messages.
type DistCluster = dist.Cluster

// NewDistCluster partitions the dataset across n simulated nodes. Close the
// cluster when done.
func (d *Dataset) NewDistCluster(n int) *DistCluster { return dist.NewCluster(d.db, n) }

// RowStoreBaseline materializes the generic row-store comparison system
// over this dataset.
func (d *Dataset) RowStoreBaseline() *RowStore { return baseline.NewRowStore(d.db) }

// RowStore is the generic record-at-a-time baseline.
type RowStore = baseline.RowStore

// RawRescan is the re-parse-the-archive baseline.
type RawRescan = baseline.RawRescan

// OpenRawRescan opens a raw dataset directory for re-scan baseline queries.
func OpenRawRescan(dir string) (*RawRescan, error) { return baseline.NewRawRescan(dir) }
