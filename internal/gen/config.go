// Package gen implements the synthetic GDELT world generator: a
// deterministic model of the global news landscape that emits data in the
// exact GDELT 2.0 raw format, calibrated to reproduce the statistical
// structure the paper's experiments measure (power-law event popularity, a
// co-owned top-publisher media group, country cross-reporting structure,
// publishing-delay mixtures, and the 2018-19 temporal trends).
//
// The real study downloaded 1.09 billion articles over five years; the
// generator is the documented substitution for that corpus (see DESIGN.md).
// Everything downstream of the generator consumes only GDELT-format bytes or
// iterators of gdelt.Event / gdelt.Mention records, so it cannot tell the
// difference.
package gen

import "gdeltmine/internal/gdelt"

// SpeedClass classifies a news source's publishing speed, the three groups
// Section VI-E identifies (plus the archive outliers with year-scale
// minimum delays).
type SpeedClass uint8

const (
	// SpeedFast sources typically report in under two hours.
	SpeedFast SpeedClass = iota
	// SpeedAverage sources follow the 24-hour news cycle with a median
	// delay around 4-5 hours.
	SpeedAverage
	// SpeedSlow sources report topics that are days to months old.
	SpeedSlow
	// SpeedArchive sources republish year-old material; they form the
	// minimum-delay outlier group beyond 30000 intervals in Figure 9.
	SpeedArchive
	numSpeedClasses
)

// Config parameterizes a synthetic corpus. The zero value is not usable;
// start from one of the presets.
type Config struct {
	// Seed drives all randomness; equal configs generate identical corpora.
	Seed int64
	// Start and End bound the archive (dates, inclusive). Defaults mirror
	// the paper: 18 Feb 2015 to 31 Dec 2019.
	Start, End gdelt.Timestamp
	// Sources is the number of news sources in the world.
	Sources int
	// EventsPerDay is the base Poisson arrival rate of world events.
	EventsPerDay float64
	// MediaGroupSize is the size of the co-owned regional media group that
	// dominates the top publishers (the Newsquest analogue).
	MediaGroupSize int
	// HeadlineEvents is the number of mass-coverage events (the Orlando
	// analogues of Table III) injected over the archive span.
	HeadlineEvents int
	// UntaggedFraction is the fraction of events without geotagging.
	UntaggedFraction float64
	// PopularityAlpha is the power-law exponent of articles-per-event.
	PopularityAlpha float64
	// Defect injection counts (Table II ground truth).
	DefectMalformedMaster  int
	DefectMissingArchives  int
	DefectMissingSourceURL int
	DefectFutureEventDate  int
	// IntervalsPerFile coarsens raw file granularity: real GDELT writes one
	// file pair per 15-minute interval; the default of 96 writes one pair
	// per day to keep file counts laptop-friendly. Mention timestamps keep
	// full 15-minute resolution regardless.
	IntervalsPerFile int
	// GKG additionally writes a Global Knowledge Graph file per chunk (one
	// annotated record per article) and ingests it on conversion.
	GKG bool
}

// Small returns a test-sized corpus configuration covering the full
// 2015-2019 span with roughly 60k articles. It generates in well under a
// second and is the workload for unit and integration tests.
func Small() Config {
	return Config{
		Seed:                   42,
		Start:                  20150218000000,
		End:                    20191231000000,
		Sources:                120,
		EventsPerDay:           10,
		MediaGroupSize:         8,
		HeadlineEvents:         8,
		UntaggedFraction:       0.15,
		PopularityAlpha:        2.2,
		DefectMalformedMaster:  5,
		DefectMissingArchives:  2,
		DefectMissingSourceURL: 1,
		DefectFutureEventDate:  2,
		IntervalsPerFile:       96 * 30,
		GKG:                    true,
	}
}

// Bench returns the corpus configuration used by the testing.B benchmarks:
// roughly 440k articles from 400 sources.
func Bench() Config {
	c := Small()
	c.Seed = 43
	c.Sources = 400
	c.EventsPerDay = 80
	c.MediaGroupSize = 10
	c.IntervalsPerFile = 96 * 7
	return c
}

// Standard returns the full experiment configuration used by cmd/gdeltbench:
// 2000 sources and roughly 4 million articles, the scaled-down analogue of
// the paper's 21k sources and 1.09B articles. Defect counts match Table II.
func Standard() Config {
	c := Small()
	c.Seed = 44
	c.Sources = 2000
	c.EventsPerDay = 700
	c.MediaGroupSize = 12
	c.HeadlineEvents = 8
	c.DefectMalformedMaster = 53
	c.DefectMissingArchives = 8
	c.DefectMissingSourceURL = 1
	c.DefectFutureEventDate = 4
	c.IntervalsPerFile = 96
	return c
}

// Days returns the number of calendar days covered by the configuration,
// inclusive of both endpoints.
func (c Config) Days() int {
	start := c.Start.Time()
	end := c.End.Time()
	return int(end.Sub(start).Hours()/24) + 1
}

// Quarters returns the number of calendar quarters covered.
func (c Config) Quarters() int {
	return quarterIndexOf(c.End) - quarterIndexOf(c.Start) + 1
}

// quarterIndexOf maps a timestamp to a quarter index relative to the start
// of the archive's first calendar year.
func quarterIndexOf(ts gdelt.Timestamp) int {
	return ts.Year()*4 + (ts.Month()-1)/3
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Sources < 20:
		return errConfig("need at least 20 sources")
	case c.MediaGroupSize < 2 || c.MediaGroupSize > c.Sources/4:
		return errConfig("media group must have 2..Sources/4 members")
	case c.End <= c.Start:
		return errConfig("End must be after Start")
	case c.EventsPerDay <= 0:
		return errConfig("EventsPerDay must be positive")
	case c.PopularityAlpha <= 2:
		return errConfig("PopularityAlpha must exceed 2 for a finite mean")
	case c.UntaggedFraction < 0 || c.UntaggedFraction > 0.9:
		return errConfig("UntaggedFraction must be in [0, 0.9]")
	case c.IntervalsPerFile < 1:
		return errConfig("IntervalsPerFile must be at least 1")
	case !c.Start.Valid() || !c.End.Valid():
		return errConfig("Start/End must be valid timestamps")
	}
	return nil
}

type errConfig string

func (e errConfig) Error() string { return "gen: invalid config: " + string(e) }
