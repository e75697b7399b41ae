package queries

import (
	"sort"

	"gdeltmine/internal/engine"
	"gdeltmine/internal/parallel"
)

// Wildfire is a fast-spreading event candidate: an event picked up by many
// distinct sources within a short window of its occurrence. Digital
// wildfires — fast-spreading (mis)information with real-world impact — are
// the paper's motivating phenomenon; the fast core of near-real-time
// sources (Section VI-E) is where they ignite.
type Wildfire struct {
	EventRow  int32
	EventID   int64
	SourceURL string
	// EarlySources is the number of distinct sources reporting within the
	// window.
	EarlySources int
	// EarlyArticles is the number of articles within the window.
	EarlyArticles int
	// TotalArticles is the event's full article count.
	TotalArticles int32
	// Velocity is EarlySources divided by the window length in intervals:
	// distinct sources ignited per 15 minutes.
	Velocity float64
}

// FastSpreadingEvents ranks events by how many distinct sources covered
// them within window capture intervals of the event, returning the top k
// with at least minSources early reporters. The scan is parallel over
// events.
func FastSpreadingEvents(e *engine.Engine, window int32, minSources, k int) []Wildfire {
	db := e.DB()
	if window < 1 {
		window = 1
	}
	candidates := parallel.MapReduce(db.Events.Len(), e.ScanOptions(),
		func() []Wildfire { return nil },
		func(acc []Wildfire, lo, hi int) []Wildfire {
			seen := map[int32]bool{}
			for ev := lo; ev < hi; ev++ {
				srcs := db.EventMentionSources(int32(ev))
				if len(srcs) < minSources {
					continue
				}
				cutoff := db.Events.Interval[ev] + window
				clear(seen)
				early := 0
				for j, iv := range db.EventMentionIntervals(int32(ev)) {
					if iv >= cutoff {
						break // the payload is interval-sorted
					}
					early++
					seen[srcs[j]] = true
				}
				if len(seen) < minSources {
					continue
				}
				acc = append(acc, Wildfire{
					EventRow:      int32(ev),
					EventID:       db.Events.ID[ev],
					SourceURL:     db.Events.SourceURL[ev],
					EarlySources:  len(seen),
					EarlyArticles: early,
					TotalArticles: db.Events.NumArticles[ev],
					Velocity:      float64(len(seen)) / float64(window),
				})
			}
			return acc
		},
		func(dst, src []Wildfire) []Wildfire { return append(dst, src...) },
	)
	sort.Slice(candidates, func(a, b int) bool {
		if candidates[a].EarlySources != candidates[b].EarlySources {
			return candidates[a].EarlySources > candidates[b].EarlySources
		}
		return candidates[a].EventID < candidates[b].EventID
	})
	if len(candidates) > k {
		candidates = candidates[:k]
	}
	return candidates
}
