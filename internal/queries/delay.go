package queries

import (
	"sort"

	"gdeltmine/internal/engine"
	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/parallel"
	"gdeltmine/internal/stats"
)

// MaxDelay bounds delays in 15-minute intervals: one year plus a day, the
// cap the store's builder enforces (Table VIII's shared maximum ~35135).
const MaxDelay = gdelt.IntervalsPerYear + gdelt.IntervalsPerDay

// SourceDelayStats is one publisher's row of Table VIII.
type SourceDelayStats struct {
	Source   int32
	Name     string
	Articles int64
	Min      int64
	Max      int64
	Average  float64
	Median   int64
}

// PublisherDelays computes per-source delay statistics for the given
// sources (Table VIII uses the top-10 publishers; Figure 9 uses all
// sources). The scan is parallel over sources via the postings index.
func PublisherDelays(e *engine.Engine, sources []int32) []SourceDelayStats {
	db := e.DB()
	out := make([]SourceDelayStats, len(sources))
	parallel.ForOpt(len(sources), e.ScanOptions(), func(lo, hi int) {
		var buf []int64
		for i := lo; i < hi; i++ {
			s := sources[i]
			rows := db.SourceMentions(s)
			st := SourceDelayStats{Source: s, Name: db.Sources.Name(s), Articles: int64(len(rows))}
			if len(rows) > 0 {
				buf = buf[:0]
				var agg stats.IntSummary
				for _, r := range rows {
					d := int64(db.Mentions.Delay[r])
					agg.Add(d)
					buf = append(buf, d)
				}
				sort.Slice(buf, func(a, b int) bool { return buf[a] < buf[b] })
				st.Min, st.Max, st.Average = agg.Min, agg.Max, agg.Mean()
				st.Median = buf[(len(buf)-1)/2] // lower median
			}
			out[i] = st
		}
	})
	return out
}

// DelayDistribution is Figure 9: for every source with at least one
// article, the distribution of its minimum, average, median and maximum
// delay, as log-binned histograms (base 2 over [1, MaxDelay]) plus the raw
// per-source statistics.
type DelayDistribution struct {
	PerSource []SourceDelayStats
	Min       *stats.LogHistogram
	Average   *stats.LogHistogram
	Median    *stats.LogHistogram
	Max       *stats.LogHistogram
}

// delayHistBuckets covers 1..2^17 = 131072 > MaxDelay.
const delayHistBuckets = 17

// DelayDistributionAll computes Figure 9 over all sources.
func DelayDistributionAll(e *engine.Engine) *DelayDistribution {
	db := e.DB()
	all := make([]int32, db.Sources.Len())
	for s := range all {
		all[s] = int32(s)
	}
	per := PublisherDelays(e, all)
	out := &DelayDistribution{
		Min:     stats.NewLogHistogram(2, delayHistBuckets),
		Average: stats.NewLogHistogram(2, delayHistBuckets),
		Median:  stats.NewLogHistogram(2, delayHistBuckets),
		Max:     stats.NewLogHistogram(2, delayHistBuckets),
	}
	for _, st := range per {
		if st.Articles == 0 {
			continue
		}
		out.PerSource = append(out.PerSource, st)
		out.Min.Add(float64(st.Min))
		out.Average.Add(st.Average)
		out.Median.Add(float64(st.Median))
		out.Max.Add(float64(st.Max))
	}
	return out
}

// QuarterlyDelay is Figure 10: the average and median publishing delay of
// all articles published in each quarter.
type QuarterlyDelay struct {
	Labels  []string
	Average []float64
	Median  []int64
}

// QuarterlyDelays computes Figure 10. Each quarter's median is exact,
// computed from a value->count table over the quarter's mention range; the
// quarters are processed in parallel.
func QuarterlyDelays(e *engine.Engine) QuarterlyDelay {
	db := e.DB()
	nq := db.NumQuarters()
	out := QuarterlyDelay{
		Labels:  quarterLabels(e),
		Average: make([]float64, nq),
		Median:  make([]int64, nq),
	}
	parallel.ForOpt(nq, scanOptGrain1(e), func(qlo, qhi int) {
		ct := stats.NewCountTable(MaxDelay)
		for q := qlo; q < qhi; q++ {
			for i := range ct.Counts {
				ct.Counts[i] = 0
			}
			ct.N = 0
			lo, hi := db.QuarterMentionRange(q)
			for r := lo; r < hi; r++ {
				ct.Add(int64(db.Mentions.Delay[r]))
			}
			if ct.N > 0 {
				out.Average[q] = ct.Mean()
				out.Median[q] = ct.Median()
			}
		}
	})
	return out
}
