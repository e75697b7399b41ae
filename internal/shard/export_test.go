package shard

import (
	"fmt"
	"slices"

	"gdeltmine/internal/store"
)

// ChunkRows is the most rows a chunk of the global event table holds.
const ChunkRows = chunkRows

// OpenRows returns how many rows of s's global event table sit in its open
// chunk, the one rows appended past the end join: 0 once a seal closed it.
func OpenRows(s *DB) int {
	if !s.events.open {
		return 0
	}
	return s.events.chunks[len(s.events.chunks)-1].Len()
}

// EventChunks returns the number of chunks of s's global event table.
func EventChunks(s *DB) int { return len(s.events.chunks) }

// GlobalEvents returns a copy of s's global event table, its chunks read as
// one, that shares no storage with s.
func GlobalEvents(s *DB) store.EventTable {
	t := store.MakeEventTable(s.events.Len())
	for _, c := range s.events.chunks {
		t.AppendRows(c, 0, c.Len())
	}
	return t
}

// checkChunks returns the first broken invariant of the chunked global
// table: every chunk holds 1 to chunkRows rows in six columns of one
// length, ends are their running sums, and an open table has a chunk.
func checkChunks(e *globalEvents) error {
	if len(e.ends) != len(e.chunks) {
		return fmt.Errorf("global table: %d ends for %d chunks", len(e.ends), len(e.chunks))
	}
	if e.open && len(e.chunks) == 0 {
		return fmt.Errorf("global table: open with no chunk")
	}
	n := 0
	for c, t := range e.chunks {
		l := t.Len()
		if l == 0 || l > chunkRows {
			return fmt.Errorf("global table: chunk %d holds %d rows, want 1 to %d", c, l, chunkRows)
		}
		if len(t.Interval) != l || len(t.Country) != l || len(t.NumArticles) != l ||
			len(t.FirstMention) != l || len(t.SourceURL) != l {
			return fmt.Errorf("global table: chunk %d columns disagree on its length", c)
		}
		if n += l; int(e.ends[c]) != n {
			return fmt.Errorf("global table: chunk %d ends at %d, its rows at %d", c, e.ends[c], n)
		}
	}
	return nil
}

// DiffFromRebuild compares s — a world the append log maintained
// incrementally — against the oracle: New run from scratch on the same
// parts and bounds (the cold-start K-way merge). It returns the first
// difference in the global event table (its chunk invariants, then column
// for column, the chunks of each table read as one), l2gEv or the
// global→local event lookup, or nil.
// The lookup is compared three ways for every global row of every part: s's
// cursors, the oracle's, and the part's own id index. It is walked twice,
// once row by row and once with growing strides, so that the cursors both
// step and gallop.
func DiffFromRebuild(s *DB) error {
	want, err := New(s.parts, s.bounds)
	if err != nil {
		return fmt.Errorf("oracle rebuild: %w", err)
	}
	if err := checkChunks(&s.events); err != nil {
		return err
	}
	a, b := GlobalEvents(s), GlobalEvents(want)
	switch {
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
