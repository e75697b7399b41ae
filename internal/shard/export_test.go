package shard

import (
	"fmt"
	"slices"

	"gdeltmine/internal/store"
)

// RecentEvents returns how many rows of the global event table s keeps in
// the run appends rebuild.
func RecentEvents(s *DB) int { return s.events.recent.Len() }

// GlobalEvents returns a copy of s's global event table, its two runs read
// as one.
func GlobalEvents(s *DB) store.EventTable {
	t := s.events.frozen.Slice(0, s.events.frozen.Len())
	for r := range s.events.recent.ID {
		t.AppendRow(&s.events.recent, r)
	}
	return t
}

// DiffFromRebuild compares s — a world the append log maintained
// incrementally — against the oracle: New run from scratch on the same
// parts and bounds (the cold-start K-way merge). It returns the first
// difference in the global event table (column for column, the two runs of
// each table read as one), l2gEv or the global→local event lookup, or nil.
// The lookup is compared three ways for every global row of every part: s's
// cursors, the oracle's, and the part's own id index. It is walked twice,
// once row by row and once with growing strides, so that the cursors both
// step and gallop.
func DiffFromRebuild(s *DB) error {
	want, err := New(s.parts, s.bounds)
	if err != nil {
		return fmt.Errorf("oracle rebuild: %w", err)
	}
	a, b := GlobalEvents(s), &want.events.frozen
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
	}
	n := int32(want.events.Len())
	for _, stride := range []int32{1, 0} { // 0: strides 1, 2, 3, ...
		got, exp := s.cursors(0, n-1), want.cursors(0, n-1)
		if len(got) != len(exp) {
			return fmt.Errorf("%d parts hold events, oracle %d", len(got), len(exp))
		}
		for g, step := int32(0), int32(1); g < n; g, step = g+max(stride, step), step+1 {
			for j := range got {
				i := got[j].part
				a, b := got[j].find(g), exp[j].find(g)
				if c := s.parts[i].EventRowByID(want.events.ID(int(g))); a != b || a != c {
					return fmt.Errorf("part %d: global event %d resolves to local row %d, oracle %d, the part's id index %d",
						i, g, a, b, c)
				}
			}
		}
	}
	return nil
}

// EventLocationBytes returns the bytes s keeps to find a global event in
// its parts: the capacity of every part's l2gEv.
func EventLocationBytes(s *DB) int {
	n := 0
	for _, r := range s.l2gEv {
		n += 4 * cap(r)
	}
	return n
}
