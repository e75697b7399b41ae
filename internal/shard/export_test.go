package shard

import (
	"fmt"
	"slices"
)

// RecentEvents returns how many rows of the global event table s keeps in
// the run appends rebuild.
func RecentEvents(s *DB) int { return s.events.recent.Len() }

// DiffFromRebuild compares s — a world the append log maintained
// incrementally — against the oracle: New run from scratch on the same
// parts and bounds (the cold-start K-way merge). It returns the first
// difference in the global event table (column for column, the two runs of
// each table read as one), l2gEv or the global→local event lookup, or nil.
// The flat inverses are compared through localEvent, because an
// incrementally maintained world numbers its events differently and keeps
// none for the tail.
func DiffFromRebuild(s *DB) error {
	want, err := New(s.parts, s.bounds, s.report)
	if err != nil {
		return fmt.Errorf("oracle rebuild: %w", err)
	}
	a, b := s.events.frozen.Slice(0, s.events.frozen.Len()), &want.events.frozen
	for r := range s.events.recent.ID {
		a.AppendRow(&s.events.recent, r)
	}
	switch {
	case s.events.low < int32(s.events.frozen.Len()) || int(s.events.low) > s.events.Len():
		return fmt.Errorf("global table: low %d outside the recent run [%d, %d]",
			s.events.low, s.events.frozen.Len(), s.events.Len())
	case !slices.Equal(a.ID, b.ID):
		return fmt.Errorf("global event ids differ (%d vs %d events)", a.Len(), b.Len())
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
	}
	for i := range s.parts {
		if !slices.Equal(s.l2gEv[i], want.l2gEv[i]) {
			return fmt.Errorf("part %d: l2gEv differs", i)
		}
		for ev := range want.s2lEv[i] { // the oracle's seqs are its rows
			if got := s.localEvent(i, s.events.seq(int32(ev)), int32(ev)); got != want.s2lEv[i][ev] {
				return fmt.Errorf("part %d: global event %d resolves to local row %d, oracle %d",
					i, ev, got, want.s2lEv[i][ev])
			}
		}
	}
	return nil
}
