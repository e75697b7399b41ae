package queries

import (
	"gdeltmine/internal/engine"
	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/parallel"
	"gdeltmine/internal/stats"
)

// This file implements the follow-up analyses Section VI-E sketches for
// future research: the delay of the very first article on each event
// (relevant to wildfire detection), repeated same-source coverage (either
// thorough reporting or deliberate amplification), and the decomposition of
// the news sphere into speed groups.

// FirstReportLatency is the distribution of each event's first-article
// delay: how long the world's fastest reporter took, per event.
type FirstReportLatency struct {
	// Histogram is log2-binned over intervals.
	Histogram *stats.LogHistogram
	// Median and P90 are exact quantiles in intervals.
	Median, P90 int64
	// WithinOneInterval is the fraction of events first reported in the
	// same capture interval they happened.
	WithinOneInterval float64
	// Events is the number of events measured.
	Events int64
}

// FirstReports computes the first-report latency distribution over all
// observed events.
func FirstReports(e *engine.Engine) FirstReportLatency {
	db := e.DB()
	ct := parallel.MapReduce(db.Events.Len(), e.ScanOptions(),
		func() *stats.CountTable { return stats.NewCountTable(MaxDelay) },
		func(acc *stats.CountTable, lo, hi int) *stats.CountTable {
			for ev := lo; ev < hi; ev++ {
				if db.Events.NumArticles[ev] == 0 {
					continue
				}
				d := int64(db.Events.FirstMention[ev]-db.Events.Interval[ev]) + 1
				if d < 0 {
					d = 0
				}
				acc.Add(d)
			}
			return acc
		},
		func(dst, src *stats.CountTable) *stats.CountTable {
			if err := dst.Merge(src); err != nil {
				panic(err)
			}
			return dst
		},
	)
	out := FirstReportLatency{
		Histogram: stats.NewLogHistogram(2, delayHistBuckets),
		Events:    ct.N,
	}
	if ct.N == 0 {
		return out
	}
	var cum int64
	p90Rank := (ct.N*9 + 9) / 10
	for v, c := range ct.Counts {
		if c == 0 {
			continue
		}
		out.Histogram.AddN(float64(v), c)
		prev := cum
		cum += c
		if prev < (ct.N+1)/2 && cum >= (ct.N+1)/2 {
			out.Median = int64(v)
		}
		if prev < p90Rank && cum >= p90Rank {
			out.P90 = int64(v)
		}
	}
	out.WithinOneInterval = float64(ct.Counts[0]+ct.Counts[1]) / float64(ct.N)
	return out
}

// RepeatedCoverage quantifies same-source repeat articles per event —
// thorough reporting or amplification (Section VI-E flags both readings).
type RepeatedCoverage struct {
	// EventsWithRepeats counts events some source covered more than once.
	EventsWithRepeats int64
	// Events is the number of observed events.
	Events int64
	// RepeatArticles counts articles beyond each source's first per event.
	RepeatArticles int64
	// TopRepeaters lists the sources with the most repeat articles.
	TopRepeaters []EntityCount
}

// EntityCount pairs a named entity (a source) with its article count.
type EntityCount struct {
	Name     string
	Articles int64
}

// Repeats computes repeated-coverage statistics. k bounds TopRepeaters.
func Repeats(e *engine.Engine, k int) RepeatedCoverage {
	db := e.DB()
	type partial struct {
		withRepeats int64
		repeats     int64
		perSource   []int64
	}
	res := parallel.MapReduce(db.Events.Len(), e.ScanOptions(),
		func() *partial { return &partial{perSource: make([]int64, db.Sources.Len())} },
		func(acc *partial, lo, hi int) *partial {
			seen := map[int32]bool{}
			for ev := lo; ev < hi; ev++ {
				srcs := db.EventMentionSources(int32(ev))
				if len(srcs) < 2 {
					continue
				}
				clear(seen)
				had := false
				for _, s := range srcs {
					if seen[s] {
						acc.repeats++
						acc.perSource[s]++
						had = true
					} else {
						seen[s] = true
					}
				}
				if had {
					acc.withRepeats++
				}
			}
			return acc
		},
		func(dst, src *partial) *partial {
			dst.withRepeats += src.withRepeats
			dst.repeats += src.repeats
			for i, v := range src.perSource {
				dst.perSource[i] += v
			}
			return dst
		},
	)
	out := RepeatedCoverage{
		EventsWithRepeats: res.withRepeats,
		RepeatArticles:    res.repeats,
	}
	for _, n := range db.Events.NumArticles {
		if n > 0 {
			out.Events++
		}
	}
	for _, s := range engine.TopK(res.perSource, k) {
		if res.perSource[s] == 0 {
			break
		}
		out.TopRepeaters = append(out.TopRepeaters,
			EntityCount{Name: db.Sources.Name(int32(s)), Articles: res.perSource[s]})
	}
	return out
}

// SpeedGroup classifies a source by its median delay, the Section VI-E
// taxonomy: fast (under two hours), average (the 24-hour cycle), slow
// (beyond a day).
type SpeedGroup int

const (
	// SpeedGroupFast sources have a median delay of at most 8 intervals.
	SpeedGroupFast SpeedGroup = iota
	// SpeedGroupAverage sources have a median delay within 24 hours.
	SpeedGroupAverage
	// SpeedGroupSlow sources have a median delay beyond 24 hours.
	SpeedGroupSlow
	numSpeedGroups
)

// SpeedGroupBreakdown decomposes the source population and article volume
// by speed group.
type SpeedGroupBreakdown struct {
	// Sources[g] counts sources in group g (among sources with articles).
	Sources [3]int64
	// Articles[g] counts their articles.
	Articles [3]int64
	// MedianDelay[g] is the group's median per-source median delay.
	MedianDelay [3]int64
}

// SpeedGroups classifies every active source by median delay.
func SpeedGroups(e *engine.Engine) SpeedGroupBreakdown {
	db := e.DB()
	all := make([]int32, db.Sources.Len())
	for s := range all {
		all[s] = int32(s)
	}
	per := PublisherDelays(e, all)
	var out SpeedGroupBreakdown
	medians := [3][]int64{}
	for _, st := range per {
		if st.Articles == 0 {
			continue
		}
		g := SpeedGroupAverage
		switch {
		case st.Median <= 8:
			g = SpeedGroupFast
		case st.Median > gdelt.IntervalsPerDay:
			g = SpeedGroupSlow
		}
		out.Sources[g]++
		out.Articles[g] += st.Articles
		medians[g] = append(medians[g], st.Median)
	}
	for g := 0; g < 3; g++ {
		out.MedianDelay[g] = stats.MedianInt64(medians[g])
	}
	return out
}
