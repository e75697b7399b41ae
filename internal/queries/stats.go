// Package queries implements the paper's experiments as typed query
// functions over the engine: dataset statistics (Table I), top events
// (Table III), publisher activity (Figure 6), co-/follow-reporting (Tables
// IV-V, Figures 7-8), country cross-reporting (Tables VI-VII), publishing
// delay analyses (Table VIII, Figures 9-11), the quarterly series (Figures
// 3-5), and the aggregated country query whose scaling Figure 12 reports.
package queries

import (
	"gdeltmine/internal/engine"
	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/parallel"
	"gdeltmine/internal/stats"
)

// scanOptGrain1 is the engine's scan options with a grain of one, used by
// loops whose per-iteration work is a whole postings scan.
func scanOptGrain1(e *engine.Engine) parallel.Options {
	opt := e.ScanOptions()
	opt.Grain = 1
	return opt
}

// DatasetStats is the Table I summary.
type DatasetStats struct {
	Sources          int
	Events           int64
	CaptureIntervals int64
	Articles         int64
	// MinArticles/MaxArticles are over events with at least one observed
	// article; ZeroMentionEvents counts events whose articles were lost
	// (e.g. to missing archives).
	MinArticles       int64
	MaxArticles       int64
	WeightedAvg       float64
	ZeroMentionEvents int64
}

// Dataset computes Table I.
func Dataset(e *engine.Engine) DatasetStats {
	db := e.DB()
	out := DatasetStats{
		Sources:          db.Sources.Len(),
		Events:           int64(db.Events.Len()),
		CaptureIntervals: int64(db.Meta.Intervals),
		Articles:         int64(db.Mentions.Len()),
	}
	var agg stats.IntSummary
	for _, n := range db.Events.NumArticles {
		if n == 0 {
			out.ZeroMentionEvents++
			continue
		}
		agg.Add(int64(n))
	}
	if agg.N > 0 {
		out.MinArticles = agg.Min
		out.MaxArticles = agg.Max
		out.WeightedAvg = agg.Mean()
	}
	return out
}

// TopEvent is one row of Table III.
type TopEvent struct {
	Mentions  int64
	EventID   int64
	SourceURL string
}

// TopEvents returns the k most-reported events (Table III).
func TopEvents(e *engine.Engine, k int) []TopEvent {
	db := e.DB()
	idx := engine.TopK(db.Events.Len(), k, func(i int) int64 {
		return int64(db.Events.NumArticles[i])
	})
	out := make([]TopEvent, 0, len(idx))
	for _, i := range idx {
		out = append(out, TopEvent{
			Mentions:  int64(db.Events.NumArticles[i]),
			EventID:   db.Events.ID[i],
			SourceURL: db.Events.SourceURL[i],
		})
	}
	return out
}

// EventSizeDistribution is the Figure 2 result: counts[x] = number of events
// with exactly x articles (x capped at the largest observed size), plus a
// power-law fit of the tail.
type EventSizeDistribution struct {
	Counts []int64
	Fit    stats.PowerLawFit
	// FitErr is non-nil when the tail was too sparse to fit.
	FitErr error
}

// EventSizes computes the Figure 2 distribution. xmin sets the fit's lower
// cutoff (the paper observes a deviation from the pure power law around the
// center, so fits typically start above 1).
func EventSizes(e *engine.Engine, xmin int) EventSizeDistribution {
	db := e.DB()
	var maxN int32
	for _, n := range db.Events.NumArticles {
		if n > maxN {
			maxN = n
		}
	}
	counts := e.GroupCountEventsCol(int(maxN)+1, db.Events.NumArticles, nil, engine.ColPred{})
	out := EventSizeDistribution{Counts: counts}
	out.Fit, out.FitErr = stats.FitPowerLaw(counts, xmin)
	return out
}

// countryCount is the number of known countries; country-set bitmasks rely
// on it fitting a uint64.
var countryCount = len(gdelt.Countries)
