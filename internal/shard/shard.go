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
package shard

import (
	"fmt"
	"strconv"
	"strings"

	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/qcache"
	"gdeltmine/internal/store"
)

// DB is a time-partitioned sharded store: K independent store.DB shards
// over one id space plus the assembly-time global event table and event
// remaps. The tail's dictionaries are the world's. Immutable after New:
// the append log derives each next world as a new DB (appendTail,
// replaceTail) that shares what did not change.
type DB struct {
	meta   store.Meta
	bounds []int32      // K+1 interval boundaries tiling [0, Intervals]
	parts  []*store.DB  // time-ordered shards
	events globalEvents // K-way ID-merged global event table
	report *gdelt.ValidationReport

	l2gEv [][]int32 // per shard: local event row -> global event row, ascending
	// per shard: event seq -> local event row, -1 absent; nil for a tail
	// the log appended to. Read it through localEvent.
	s2lEv [][]int32
}

// New assembles a sharded DB from time-ordered parts. bounds must tile
// [0, Intervals]; every part's source (and theme, when the parts carry GKG)
// dictionary must be a prefix of the tail's, which becomes the world's. All
// inputs are validated — corrupt manifests and disagreeing shards error,
// they never panic.
func New(parts []*store.DB, bounds []int32, report *gdelt.ValidationReport) (*DB, error) {
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
		report: report,
	}
	if s.report == nil {
		s.report = parts[0].Report
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

// mergeEvents K-way merges the shards' ID-sorted event tables into the
// global table, building the event row remaps. Shards holding the same
// event must agree on every column — they all copied it verbatim from the
// same monolith row.
func (s *DB) mergeEvents() error {
	K := len(s.parts)
	cur := make([]int, K)
	s.l2gEv = make([][]int32, K)
	for i, p := range s.parts {
		s.l2gEv[i] = make([]int32, p.Events.Len())
	}
	ev := &s.events.frozen
	for {
		minID, found := int64(0), false
		for i, p := range s.parts {
			if cur[i] < p.Events.Len() {
				if id := p.Events.ID[cur[i]]; !found || id < minID {
					minID, found = id, true
				}
			}
		}
		if !found {
			break
		}
		g := ev.Len()
		first := true
		for i, p := range s.parts {
			r := cur[i]
			if r >= p.Events.Len() || p.Events.ID[r] != minID {
				continue
			}
			if first {
				first = false
				ev.ID = append(ev.ID, minID)
				ev.Interval = append(ev.Interval, p.Events.Interval[r])
				ev.Country = append(ev.Country, p.Events.Country[r])
				ev.NumArticles = append(ev.NumArticles, p.Events.NumArticles[r])
				ev.FirstMention = append(ev.FirstMention, p.Events.FirstMention[r])
				ev.SourceURL = append(ev.SourceURL, p.Events.SourceURL[r])
			} else if p.Events.Interval[r] != ev.Interval[g] ||
				p.Events.Country[r] != ev.Country[g] || p.Events.NumArticles[r] != ev.NumArticles[g] ||
				p.Events.FirstMention[r] != ev.FirstMention[g] || p.Events.SourceURL[r] != ev.SourceURL[g] {
				return fmt.Errorf("shard: shards disagree on event %d", minID)
			}
			s.l2gEv[i][r] = int32(g)
			cur[i]++
		}
	}
	// A shard that holds every event holds the merged table row for row —
	// the loop above compared the columns — so the world shares its columns
	// instead of keeping a copy (a Single world never has a second event
	// table). Neither is ever written: appends copy what they change.
	for _, p := range s.parts {
		if p.Events.Len() == ev.Len() {
			*ev = p.Events.Slice(0, ev.Len())
			break
		}
	}
	n := int32(ev.Len())
	s.events.low, s.events.seqs = n, n
	s.events.frozenSeq = make([]int32, n)
	for g := range s.events.frozenSeq {
		s.events.frozenSeq[g] = int32(g)
	}
	s.s2lEv = make([][]int32, K)
	for i := range s.parts {
		s.s2lEv[i] = s.invertRemap(i)
	}
	return nil
}

// invertRemap returns the flat seq→local inverse of part i's local→global
// event remap over the numbers handed out so far, -1 where the part lacks
// the event.
func (s *DB) invertRemap(i int) []int32 {
	inv := make([]int32, s.events.seqs)
	for q := range inv {
		inv[q] = -1
	}
	for r, g := range s.l2gEv[i] {
		inv[s.events.seq(g)] = int32(r)
	}
	return inv
}

// replaceTail returns the world in which the tail part gives way to the
// two parts a seal sliced out of it at interval cut; s is not written.
// Both parts keep the tail's dictionaries, so the world's id space is
// unchanged. Slicing neither adds events nor changes their metadata, so
// the global event table keeps its rows, and every other part's remaps
// are shared with s; only the two new parts' event remaps are built. The
// seal is also where the global table's settled rows join its frozen run
// (globalEvents.freeze), and the sealed part gets its flat s2lEv: O(tail)
// work plus two O(global events) allocations per seal. The fresh tail gets
// no flat inverse, like any tail an append produced (see localEvent).
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
	next.s2lEv = append(s.s2lEv[:ti:ti], nil, nil)
	for i := ti; i < len(next.parts); i++ {
		p := next.parts[i]
		remap := make([]int32, p.Events.Len())
		for r, id := range p.Events.ID {
			if remap[r] = s.events.row(id); remap[r] < 0 {
				return nil, fmt.Errorf("shard: shard %d event %d missing from the global table", i, id)
			}
		}
		next.l2gEv[i] = remap
	}
	for _, g := range s.l2gEv[ti] {
		seq, held := s.events.seq(g), false
		for i := len(next.parts) - 1; i >= 0 && !held; i-- {
			held = next.localEvent(i, seq, g) >= 0
		}
		if !held {
			return New(next.parts, next.bounds, s.report)
		}
	}
	next.events = s.events.freeze()
	next.s2lEv[ti] = next.invertRemap(ti)
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

// Report returns the shared conversion defect report.
func (s *DB) Report() *gdelt.ValidationReport { return s.report }

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
// not change — see StaleKey and qcache.Cache.SetStale.
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

// StaleKey reports whether a cached entry's key refers to part versions
// that have moved on. It re-derives the expected Window from the entry's
// own: an archive key ("a…") or an all-parts answer ("iv…/a…") is stale
// once any part's version moved or a part was added; a window-only answer
// ("iv…/v…") only once a shard its window overlaps did, so a tail-shard
// append leaves entries over cold shards servable. Keys that do not parse
// are conservatively stale.
func (s *DB) StaleKey(k qcache.Key) bool {
	if strings.HasPrefix(k.Window, "a") {
		w, _ := s.ArchiveWindow()
		return k.Window != w
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
	w, _ := s.CacheWindow(int32(from), int32(to), strings.HasPrefix(versions, "v"))
	return k.Window != w
}
