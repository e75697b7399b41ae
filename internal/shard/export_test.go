package shard

import (
	"fmt"
	"slices"
)

// DiffFromRebuild compares s — a world the append log maintained
// incrementally — against the oracle: New run from scratch on the same
// parts, bounds and dictionaries (the cold-start K-way merge). It returns
// the first difference in the global event table (column for column),
// eventCountryLUT, l2gSrc, l2gEv or the global→local event lookup, or nil.
// g2lEv is compared through localEvent, because an incrementally
// maintained world keeps only a prefix of the flat inverse.
func DiffFromRebuild(s *DB) error {
	want, err := New(s.parts, s.bounds, s.sources, s.themes, s.report)
	if err != nil {
		return fmt.Errorf("oracle rebuild: %w", err)
	}
	a, b := &s.events, &want.events
	switch {
	case !slices.Equal(a.ID, b.ID):
		return fmt.Errorf("global event ids differ (%d vs %d events)", a.Len(), b.Len())
	case !slices.Equal(a.Day, b.Day):
		return fmt.Errorf("global Day column differs")
	case !slices.Equal(a.Interval, b.Interval):
		return fmt.Errorf("global Interval column differs")
	case !slices.Equal(a.Country, b.Country):
		return fmt.Errorf("global Country column differs")
	case !slices.Equal(a.NumArticles, b.NumArticles):
		return fmt.Errorf("global NumArticles column differs")
	case !slices.Equal(a.FirstMention, b.FirstMention):
		return fmt.Errorf("global FirstMention column differs")
	case !slices.Equal(a.SourceURL, b.SourceURL):
		return fmt.Errorf("global SourceURL column differs")
	case !slices.Equal(s.eventCountryLUT, want.eventCountryLUT):
		return fmt.Errorf("eventCountryLUT differs")
	}
	for i := range s.parts {
		if !slices.Equal(s.l2gSrc[i], want.l2gSrc[i]) {
			return fmt.Errorf("part %d: l2gSrc differs", i)
		}
		if !slices.Equal(s.l2gEv[i], want.l2gEv[i]) {
			return fmt.Errorf("part %d: l2gEv differs", i)
		}
		for ev := range want.g2lEv[i] {
			if got := s.localEvent(i, int32(ev)); got != want.g2lEv[i][ev] {
				return fmt.Errorf("part %d: global event %d resolves to local row %d, oracle %d",
					i, ev, got, want.g2lEv[i][ev])
			}
		}
	}
	return nil
}
