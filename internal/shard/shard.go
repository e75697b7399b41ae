// Package shard implements the time-partitioned shard layer: a DB that
// holds K time-range shards, each an independent store.DB over the world's
// dictionary ids, plus the global event table and the event-row remaps
// built at assembly time. Query execution (view.go, queries.go) fans out
// per shard over the existing typed kernels and reduces the partial
// results into one global answer that is bit-exact (1e-9 for floats)
// against the monolithic execution — the invariant the differential
// battery in internal/baseline pins.
//
// Layout invariants (enforced by New, never assumed):
//
//   - bounds is a strict tiling of [0, Meta.Intervals]: bounds[0] == 0,
//     strictly increasing, bounds[K] == Intervals. Shard i owns capture
//     intervals [bounds[i], bounds[i+1]).
//   - Every shard carries the full global Meta, so quarter indexes, labels
//     and interval arithmetic agree across shards and with the monolith.
//   - A shard's mention table holds exactly the monolith's mentions captured
//     in its interval range (still interval-sorted); its event table is the
//     ID-ordered subsequence of global events it references (plus the events
//     homed in its range), with per-event metadata (NumArticles,
//     FirstMention, ...) copied verbatim from the monolith, so the K-way
//     merge of shard event tables reproduces the global table exactly.
//   - One id space: every part's source and theme dictionaries are
//     prefixes of the tail's, which are the world's — a name has the same
//     id in every part that holds it. A part's columns are therefore read
//     with global ids and nothing is remapped by name.
//   - One report: the tail's defect report is the world's. The parts of a
//     split share the monolith's report, an append records its drops in a
//     clone of the tail's, and a seal gives the tail's report to both parts
//     it makes, so no part holds a defect the tail's report lacks.
package shard

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/qcache"
	"gdeltmine/internal/store"
)

// DB is a time-partitioned sharded store: K independent store.DB shards
// over one id space plus the assembly-time global event table and event
// remaps. The tail's dictionaries and defect report are the world's.
// Immutable after New: the append log derives each next world as a new DB
// (appendTail, replaceTail) that shares what did not change.
type DB struct {
	meta   store.Meta
	bounds []int32      // K+1 interval boundaries tiling [0, Intervals]
	parts  []*store.DB  // time-ordered shards
	events globalEvents // K-way ID-merged global event table

	// per shard: local event row -> global event row, ascending, made by
	// newRemap. The other way, global row -> local row, is a walk of it
	// (partCursor).
	l2gEv [][]int32
}

// New assembles a sharded DB from time-ordered parts. bounds must tile
// [0, Intervals]; every part's source (and theme, when the parts carry GKG)
// dictionary must be a prefix of the tail's, which becomes the world's. All
// inputs are validated — corrupt manifests and disagreeing shards error,
// they never panic.
func New(parts []*store.DB, bounds []int32) (*DB, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("shard: no shards")
	}
	for i, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("shard: shard %d is nil", i)
		}
	}
	meta := parts[0].Meta
	if len(bounds) != len(parts)+1 {
		return nil, fmt.Errorf("shard: %d bounds for %d shards", len(bounds), len(parts))
	}
	if bounds[0] != 0 || bounds[len(bounds)-1] != meta.Intervals {
		return nil, fmt.Errorf("shard: bounds [%d, %d] do not tile [0, %d]",
			bounds[0], bounds[len(bounds)-1], meta.Intervals)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("shard: bounds not strictly increasing at %d", i)
		}
	}
	s := &DB{
		meta:   meta,
		bounds: append([]int32(nil), bounds...),
		parts:  append([]*store.DB(nil), parts...),
	}
	for i, p := range parts {
		if p.Meta != meta {
			return nil, fmt.Errorf("shard: shard %d meta %+v disagrees with shard 0 %+v", i, p.Meta, meta)
		}
		if n := p.Mentions.Len(); n > 0 {
			if iv := p.Mentions.Interval[0]; iv < bounds[i] {
				return nil, fmt.Errorf("shard: shard %d mention interval %d below bound %d", i, iv, bounds[i])
			}
			if iv := p.Mentions.Interval[n-1]; iv >= bounds[i+1] {
				return nil, fmt.Errorf("shard: shard %d mention interval %d past bound %d", i, iv, bounds[i+1])
			}
		}
		if err := sameIDSpace(p, s.Tail()); err != nil {
			return nil, fmt.Errorf("shard: shard %d %w", i, err)
		}
	}
	if err := s.mergeEvents(); err != nil {
		return nil, err
	}
	return s, nil
}

// sameIDSpace reports whether part p reads its source and theme ids in the
// id space of tail: each of its dictionaries must be a prefix of tail's,
// and it carries GKG data exactly when tail does.
func sameIDSpace(p, tail *store.DB) error {
	if err := isPrefix(p.Sources, tail.Sources); err != nil {
		return fmt.Errorf("source dictionary %w", err)
	}
	if (p.GKG == nil) != (tail.GKG == nil) {
		return fmt.Errorf("disagrees with the tail on carrying GKG data")
	}
	if p.GKG != nil {
		if err := isPrefix(p.GKG.Themes, tail.GKG.Themes); err != nil {
			return fmt.Errorf("theme dictionary %w", err)
		}
	}
	return nil
}

// isPrefix returns nil when every id of local names what the same id of
// world names, and otherwise an error naming the first id that differs.
func isPrefix(local, world *store.Dictionary) error {
	if local == world {
		return nil
	}
	w := world.Names()
	if local.Len() > len(w) {
		return fmt.Errorf("holds %d names, the world's %d", local.Len(), len(w))
	}
	for id, name := range local.Names() {
		if name != w[id] {
			return fmt.Errorf("names id %d %q, the world's dictionary %q", id, name, w[id])
		}
	}
	return nil
}

// eventRow is one row of one part's event table, with the event's id.
type eventRow struct {
	id        int64
	part, row int32
}

// walkEvents is the one K-way walk of the parts' ID-sorted event tables:
// it calls fn once per event id, ascending, with the rows holding it in
// part order. A binary heap of part heads, keyed by (id, part), makes it
// O(rows log K). fn must not keep run, and an error from fn stops the walk.
func walkEvents(parts []*store.DB, fn func(run []eventRow) error) error {
	h := make([]eventRow, 0, len(parts))
	for i, p := range parts {
		if p.Events.Len() > 0 {
			h = append(h, eventRow{p.Events.ID[0], int32(i), 0})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for run := []eventRow(nil); len(h) > 0; run = run[:0] {
		for id := h[0].id; len(h) > 0 && h[0].id == id; siftDown(h, 0) {
			run = append(run, h[0])
			if ids, r := parts[h[0].part].Events.ID, h[0].row+1; int(r) < len(ids) {
				h[0].id, h[0].row = ids[r], r
			} else {
				h[0], h = h[len(h)-1], h[:len(h)-1]
			}
		}
		if err := fn(run); err != nil {
			return err
		}
	}
	return nil
}

// siftDown restores the heap order of h, by (id, part), below node i.
func siftDown(h []eventRow, i int) {
	less := func(a, b int) bool { return h[a].id < h[b].id || h[a].id == h[b].id && h[a].part < h[b].part }
	for c := 2*i + 1; c < len(h); i, c = c, 2*c+1 {
		if c+1 < len(h) && less(c+1, c) {
			c++
		}
		if !less(c, i) {
			return
		}
		h[i], h[c] = h[c], h[i]
	}
}

// mergeEvents builds the global table and the event row remaps from one
// walkEvents pass over the shards' event tables. Shards holding the same
// event must agree on every column — they all copied it verbatim from the
// same monolith row. The table is filled once the walk has counted its
// rows, so its columns are allocated at their final length.
func (s *DB) mergeEvents() error {
	s.l2gEv = make([][]int32, len(s.parts))
	for i, p := range s.parts {
		s.l2gEv[i] = newRemap(p.Events.Len())
	}
	var first []eventRow // each event's row in the lowest part holding it
	if err := walkEvents(s.parts, func(run []eventRow) error {
		a, ra := &s.parts[run[0].part].Events, run[0].row
		for _, e := range run {
			p, r := &s.parts[e.part].Events, e.row
			if p.Interval[r] != a.Interval[ra] || p.Country[r] != a.Country[ra] || p.NumArticles[r] != a.NumArticles[ra] ||
				p.FirstMention[r] != a.FirstMention[ra] || p.SourceURL[r] != a.SourceURL[ra] {
				return fmt.Errorf("shard: shards disagree on event %d", e.id)
			}
			s.l2gEv[e.part][r] = int32(len(first))
		}
		first = append(first, run[0])
		return nil
	}); err != nil {
		return err
	}
	// A shard that holds every event holds the merged table row for row —
	// the walk above compared the columns — so the world shares its columns
	// instead of keeping a copy (a Single world never has a second event
	// table). Neither is ever written: appends copy what they change.
	var ev store.EventTable
	if i := slices.IndexFunc(s.parts, func(p *store.DB) bool { return p.Events.Len() == len(first) }); i >= 0 {
		ev = s.parts[i].Events.Slice(0, len(first))
	} else {
		ev = store.MakeEventTable(len(first))
		for _, f := range first {
			ev.AppendRow(&s.parts[f.part].Events, int(f.row))
		}
	}
	s.events = cutEvents(&ev)
	return nil
}

// replaceTail returns the world in which the tail part gives way to the
// two parts a seal sliced out of it at interval cut; s is not written.
// Both parts keep the tail's dictionaries, so the world's id space is
// unchanged. Slicing neither adds events nor changes their metadata, so
// the global event table keeps its rows, and every other part's remaps
// are shared with s; only the two new parts' event remaps are built. The
// seal also closes the global table's open chunk (globalEvents.seal):
// O(tail) work plus at most one chunk copied.
//
// The one way slicing can change the global table is by dropping an event:
// a tail event with no mention in the tail and an event interval below the
// tail window lands in neither slice. If no other part holds it either,
// the table a cold start would merge from these parts is smaller than the
// shared one, so the world is rebuilt with New instead.
func (s *DB) replaceTail(sealed, fresh *store.DB, cut int32) (*DB, error) {
	ti := len(s.parts) - 1
	c := *s
	next := &c
	next.parts = append(s.parts[:ti:ti], sealed, fresh)
	next.bounds = append(s.bounds[:ti+1:ti+1], cut, s.meta.Intervals)
	next.l2gEv = append(s.l2gEv[:ti:ti], nil, nil)
	for i := ti; i < len(next.parts); i++ {
		p := next.parts[i]
		remap := newRemap(p.Events.Len())
		for r, id := range p.Events.ID {
			if remap[r] = s.events.row(id); remap[r] < 0 {
				return nil, fmt.Errorf("shard: shard %d event %d missing from the global table", i, id)
			}
		}
		next.l2gEv[i] = remap
	}
	if old := s.l2gEv[ti]; len(old) > 0 {
		cs := next.cursors(old[0], old[len(old)-1])
		for _, g := range old {
			held := false
			for j := len(cs) - 1; j >= 0 && !held; j-- {
				held = cs[j].find(g) >= 0
			}
			if !held {
				return New(next.parts, next.bounds)
			}
		}
	}
	next.events = s.events.seal()
	return next, nil
}

// K returns the number of shards.
func (s *DB) K() int { return len(s.parts) }

// Bounds returns the K+1 interval boundaries tiling [0, Meta.Intervals].
func (s *DB) Bounds() []int32 { return append([]int32(nil), s.bounds...) }

// Part returns shard i.
func (s *DB) Part(i int) *store.DB { return s.parts[i] }

// Tail returns the last (most recent) shard — the only shard a stream
// append extends, and therefore the only version a chunk fold bumps.
func (s *DB) Tail() *store.DB { return s.parts[len(s.parts)-1] }

// Meta returns the shared dataset metadata.
func (s *DB) Meta() store.Meta { return s.meta }

// Report returns the world's defect report: the tail's. Every part of a
// split shares the monolith's report, and each append records its drops
// in a clone of the tail's, so the tail's report holds every defect the
// world's rows were built with.
func (s *DB) Report() *gdelt.ValidationReport { return s.Tail().Report }

// Sources returns the world's source dictionary: the tail's, of which every
// part's is a prefix (monolith id order for a split monolith).
func (s *DB) Sources() *store.Dictionary { return s.Tail().Sources }

// EventCount returns the number of global events.
func (s *DB) EventCount() int { return s.events.Len() }

// HasGKG reports whether the shards carry Global Knowledge Graph data (New
// checks that all of them do or none).
func (s *DB) HasGKG() bool { return s.Tail().GKG != nil }

// Themes returns the world's theme dictionary, the tail's, or nil without
// GKG.
func (s *DB) Themes() *store.Dictionary {
	if g := s.Tail().GKG; g != nil {
		return g.Themes
	}
	return nil
}

// NumQuarters returns the number of calendar quarters covered. All shards
// share the global Meta, so quarter geometry is identical everywhere.
func (s *DB) NumQuarters() int { return s.parts[0].NumQuarters() }

// QuarterLabel renders quarter q as e.g. "2016Q3".
func (s *DB) QuarterLabel(q int) string { return s.parts[0].QuarterLabel(q) }

// overlapping returns the half-open shard index range whose interval
// ranges intersect the window [from, to).
func (s *DB) overlapping(from, to int32) (lo, hi int) {
	if from >= to {
		return 0, 0
	}
	lo, hi = 0, len(s.parts)
	for lo < hi && s.bounds[lo+1] <= from {
		lo++
	}
	for hi > lo && s.bounds[hi-1] >= to {
		hi--
	}
	return lo, hi
}

// CacheWindow returns the Window and Version components of the cache key
// of an answer over the capture window [from, to). A window-only answer
// (one that reads nothing but the mention rows inside its window) keys on
// the version vector of the shards the window overlaps, "iv0:96/v3.4", and
// the max over them: an append that bumps only the tail shard leaves
// cold-window entries servable. Any other answer reads event tables,
// postings or per-event metadata that an append may change in every part,
// so it keys on the version vector of every part, "iv0:96/a0.3.4", and the
// max over all of them. Embedding the per-shard versions (not just the
// max) is what lets the staleness sweep keep warm entries whose shards did
// not change — see Staleness and qcache.Cache.SetStale.
func (s *DB) CacheWindow(from, to int32, windowOnly bool) (window string, version uint64) {
	lo, hi := 0, len(s.parts)
	tag := "/a"
	if windowOnly {
		lo, hi = s.overlapping(from, to)
		tag = "/v"
	}
	var b strings.Builder
	b.WriteString("iv")
	b.WriteString(strconv.FormatInt(int64(from), 10))
	b.WriteByte(':')
	b.WriteString(strconv.FormatInt(int64(to), 10))
	b.WriteString(tag)
	version = s.writeVersions(&b, lo, hi)
	return b.String(), version
}

// ArchiveWindow returns the Window and Version components of the cache key
// of a value that reads every part and no mention window (a kind's archive
// half): the version vector of every part, "a0.3.4", and its max. A log
// that has grown parts since the value was cached therefore never matches.
func (s *DB) ArchiveWindow() (window string, version uint64) {
	var b strings.Builder
	b.WriteByte('a')
	version = s.writeVersions(&b, 0, len(s.parts))
	return b.String(), version
}

// writeVersions appends the dot-joined versions of parts [lo, hi) and
// returns their max.
func (s *DB) writeVersions(b *strings.Builder, lo, hi int) uint64 {
	var top uint64
	for i := lo; i < hi; i++ {
		if i > lo {
			b.WriteByte('.')
		}
		v := s.parts[i].Version()
		b.WriteString(strconv.FormatUint(v, 10))
		top = max(top, v)
	}
	return top
}

// Staleness returns the rule that tells which cached entries' keys refer
// to part versions that have moved on in s, for qcache.Cache.SetStale. It
// renders the version vector of every part once, so a sweep costs O(1) per
// all-parts or archive entry rather than O(parts). The rule re-derives the
// expected Window from the entry's own: an archive key ("a…") or an
// all-parts answer ("iv…/a…") is stale once any part's version moved or a
// part was added; a window-only answer ("iv…/v…") only once a shard its
// window overlaps did, so a tail-shard append leaves entries over cold
// shards servable. Keys that do not parse are conservatively stale.
func (s *DB) Staleness() func(qcache.Key) bool {
	var b strings.Builder
	s.writeVersions(&b, 0, len(s.parts))
	every := b.String()
	return func(k qcache.Key) bool {
		if versions, ok := strings.CutPrefix(k.Window, "a"); ok {
			return versions != every
		}
		rest, ok := strings.CutPrefix(k.Window, "iv")
		if !ok {
			return true
		}
		fromStr, rest, ok := strings.Cut(rest, ":")
		if !ok {
			return true
		}
		toStr, versions, ok := strings.Cut(rest, "/")
		if !ok {
			return true
		}
		from, err := strconv.ParseInt(fromStr, 10, 32)
		if err != nil {
			return true
		}
		to, err := strconv.ParseInt(toStr, 10, 32)
		if err != nil {
			return true
		}
		if rest, ok := strings.CutPrefix(versions, "a"); ok {
			return rest != every
		}
		w, _ := s.CacheWindow(int32(from), int32(to), strings.HasPrefix(versions, "v"))
		return k.Window != w
	}
}
