package store

import (
	"fmt"
	"slices"
	"sync/atomic"

	"gdeltmine/internal/bitmap"
	"gdeltmine/internal/gdelt"
)

// Copy-on-write support for the partitioned append log (internal/shard.Log).
// Published snapshots are immutable, so a feed tick never mutates a store a
// reader may hold: CloneAppend builds the next tail as a new DB, and the
// shard layer shallow-copies the few non-tail parts whose per-event
// metadata the tick changes (see shard.DB.appendTail). What a tail clone
// copies and what it shares with its original:
//
//   - copied: the mention columns and the three per-event metadata columns
//     (the fold appends rows, renumbers Mentions.EventRow and bumps
//     NumArticles/FirstMention/Interval in place on the copy) and the
//     validation report (the fold records defects);
//   - shared until the fold inserts an event row, which rebuilds all event
//     columns as fresh allocations (mergeEventRows never writes the old
//     ones): the per-event identity columns ID, Country, SourceURL;
//   - copied only if the chunk names a source the tail has not seen: the
//     source dictionary, which the tail shares with the world and with
//     the parts sealed from it (Intern writes the map readers range over);
//   - shared: the capture-interval calendar (a function of Meta) and the
//     GKG store (appends never extend it);
//   - rebuilt, once, after all table mutation: the by-source postings and
//     the event-major payload, and every keyed index — source event and
//     country bitmaps, source countries — where the tick changed its
//     inputs; the other keys are shared (buildDerived's dirty-key rule).
//
// The cost is O(tail rows), bounded by the compactor's seal thresholds, and
// independent of the sealed world.

// SetVersion pins the snapshot version on a clone (AssembleDB starts every
// assembly back at 0). The append log relies on it twice: a cloned tail
// carries its original's version forward, plus one, so tail-window cache
// keys stay comparable, and a seal hands the old tail's version to both
// the sealed part and the fresh tail. The carry-forward is safe for cache
// keys because data only ever changes through appends, and every append
// bumps the (cloned) tail's version — so any window whose rows changed
// gains a strictly larger version component than any key minted before.
func (db *DB) SetVersion(v uint64) { atomic.StoreUint64(&db.version, v) }

// Clone returns an independent dictionary with identical ids. The append
// path clones the tail's dictionary — the world's — before interning new
// chunk sources into it: Intern writes the map that readers of the
// published snapshot may be ranging over.
func (d *Dictionary) Clone() *Dictionary {
	c := &Dictionary{
		byName: make(map[string]int32, len(d.byName)),
		names:  append([]string(nil), d.names...),
	}
	for name, id := range d.byName {
		c.byName[name] = id
	}
	return c
}

// cloneReport deep-copies a validation report. The report has no internal
// locking — appends record new defects into it freely — so a clone that
// will be appended to must never share one with a published snapshot.
func cloneReport(r *gdelt.ValidationReport) *gdelt.ValidationReport {
	if r == nil {
		return nil
	}
	c := &gdelt.ValidationReport{Counts: r.Counts, MaxExamples: r.MaxExamples}
	for i := range r.Examples {
		c.Examples[i] = append([]string(nil), r.Examples[i]...)
	}
	return c
}

// CloneAppend returns a new store holding db's rows plus the adopted event
// rows plus one feed chunk, at db's version + 1; db itself is not written.
// adopt carries already-derived event rows copied verbatim from another
// shard of the same archive (events the chunk mentions that this shard
// never held): strictly ascending by ID, none of them stored here. Unlike
// the chunk's raw events they keep their global metadata unchanged.
// Chunk semantics and errors are appendRows'.
func (db *DB) CloneAppend(adopt EventTable, evs []gdelt.Event, mns []gdelt.Mention) (*DB, AppendStats, error) {
	for i, id := range adopt.ID {
		if (i > 0 && id <= adopt.ID[i-1]) || db.EventRowByID(id) >= 0 {
			return nil, AppendStats{}, fmt.Errorf("store: adopting event %d: out of order or already stored", id)
		}
	}
	sources := db.Sources
	for i := range mns {
		if mns[i].MentionType == gdelt.MentionTypeWeb && sources.Lookup(mns[i].SourceName) < 0 {
			sources = sources.Clone()
			break
		}
	}
	c := &DB{
		Meta:    db.Meta,
		Sources: sources,
		Events: EventTable{
			ID:           db.Events.ID,
			Interval:     slices.Clone(db.Events.Interval),
			Country:      db.Events.Country,
			NumArticles:  slices.Clone(db.Events.NumArticles),
			FirstMention: slices.Clone(db.Events.FirstMention),
			SourceURL:    db.Events.SourceURL,
		},
		Mentions: MentionTable{
			EventRow:   cloneWithRoom(db.Mentions.EventRow, len(mns)),
			Source:     cloneWithRoom(db.Mentions.Source, len(mns)),
			Interval:   cloneWithRoom(db.Mentions.Interval, len(mns)),
			Delay:      cloneWithRoom(db.Mentions.Delay, len(mns)),
			DocLen:     cloneWithRoom(db.Mentions.DocLen, len(mns)),
			Tone:       cloneWithRoom(db.Mentions.Tone, len(mns)),
			Confidence: cloneWithRoom(db.Mentions.Confidence, len(mns)),
		},
		GKG:    db.GKG,
		Report: cloneReport(db.Report),
	}
	c.mergeEventRows(adopt)
	st, err := c.appendRows(evs, mns)
	if err != nil {
		return nil, st, err
	}
	c.buildDerived(db)
	if err := c.Validate(); err != nil {
		return nil, st, fmt.Errorf("store: append left an invalid db: %w", err)
	}
	c.SetVersion(db.Version() + 1)
	return c, st, nil
}

// DiffFromRebuild compares every derived index of db with what a fresh
// buildDerived over the same tables builds — the oracle for the dirty-key
// rule CloneAppend rebuilds by — and returns the first difference, or nil:
// the by-source postings, the event payload and its offsets, quarterRow,
// SourceCountry, the quarter LUT, and the two source-bitmap families and the
// country and event-country bitmaps, nil exactly where the rebuild's are.
// The payload is then checked against the mention columns directly, since
// the rebuild shares its builder.
func (db *DB) DiffFromRebuild() error {
	want := &DB{Meta: db.Meta, Sources: db.Sources, Events: db.Events, Mentions: db.Mentions}
	want.buildDerived(nil)
	for _, c := range []struct {
		name  string
		equal bool
	}{
		{"source postings", slices.Equal(db.bySourcePtr, want.bySourcePtr) && slices.Equal(db.bySourceIdx, want.bySourceIdx)},
		{"event payload", slices.Equal(db.byEventPtr, want.byEventPtr) &&
			slices.Equal(db.byEventSrc, want.byEventSrc) && slices.Equal(db.byEventIv, want.byEventIv)},
		{"quarterRow", slices.Equal(db.quarterRow, want.quarterRow)},
		{"SourceCountry", slices.Equal(db.SourceCountry, want.SourceCountry)},
		{"quarter LUT", slices.Equal(db.cal.lut, want.cal.lut)},
	} {
		if !c.equal {
			return fmt.Errorf("%s differs from a rebuild", c.name)
		}
	}
	for _, f := range []struct {
		name      string
		got, want []*bitmap.Bitmap
	}{
		{"source event", db.srcEvBM, want.srcEvBM},
		{"source repeat-event", db.srcRepEvBM, want.srcRepEvBM},
		{"country", db.ctryRowBM, want.ctryRowBM},
		{"event-country", db.evCtryRowBM, want.evCtryRowBM},
	} {
		if len(f.got) != len(f.want) {
			return fmt.Errorf("%s bitmaps: %d keys, the rebuild %d", f.name, len(f.got), len(f.want))
		}
		for k := range f.got {
			if (f.got[k] == nil) != (f.want[k] == nil) || !bitmap.Equal(f.got[k], f.want[k]) {
				return fmt.Errorf("%s bitmap of key %d differs from a rebuild", f.name, k)
			}
		}
	}
	return db.checkEventPayload()
}

// checkEventPayload walks the mention columns in row order and checks that
// each mention's Source and Interval sit at the next free posting of its
// event's payload, and that every event's payload holds exactly its
// mentions: the payload is the row-order walk, grouped by event. The
// payload columns must already have the lengths a rebuild gives them.
func (db *DB) checkEventPayload() error {
	ne := db.Events.Len()
	next := slices.Clone(db.byEventPtr[:ne])
	for r := range db.Mentions.Len() {
		e := db.Mentions.EventRow[r]
		j := next[e]
		if j >= db.byEventPtr[e+1] {
			return fmt.Errorf("event payload of event row %d is shorter than its mentions", e)
		}
		if db.byEventSrc[j] != db.Mentions.Source[r] || db.byEventIv[j] != db.Mentions.Interval[r] {
			return fmt.Errorf("event payload of event row %d at posting %d differs from mention row %d", e, j, r)
		}
		next[e]++
	}
	for e := range ne {
		if next[e] != db.byEventPtr[e+1] {
			return fmt.Errorf("event payload of event row %d is longer than its mentions", e)
		}
	}
	return nil
}

// cloneWithRoom copies s into a slice with capacity for extra more
// elements, so the fold's appends do not reallocate what was just copied.
func cloneWithRoom[T any](s []T, extra int) []T {
	return append(make([]T, 0, len(s)+extra), s...)
}

// ShallowClone returns a copy of the store struct sharing all storage with
// db. The append log uses it to replace single columns of a non-tail part
// (the per-event metadata a tick propagates; no derived index reads them)
// without touching the published original. The version field is a plain
// word precisely so this struct copy is legal; the copy happens under the
// append log's writer lock, never concurrently with a version bump.
func (db *DB) ShallowClone() *DB {
	c := *db
	return &c
}
