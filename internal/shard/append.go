package shard

import (
	"fmt"
	"slices"

	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/obs"
	"gdeltmine/internal/store"
)

var mAppendFallback = obs.Default.Counter("shard_log_append_fallback_total",
	"appends that re-merged the whole global event table because a new event id was not above the stored maximum")

// appendTail returns the world after one feed tick is folded into the tail
// part. s — a published snapshot — is never written: the result is a struct
// copy of s that shares everything the tick does not change and replaces,
// copy-on-write, exactly what it does. dirtied lists the non-tail parts
// whose persisted image the tick made stale.
//
// Shared by reference with s: every sealed part the tick does not touch,
// bounds, meta, report, theme remaps, the remaps of all non-tail parts, the
// global source dictionary unless the tick interns a new source, and the
// global event table's identity columns.
//
// Replaced:
//
//   - The tail: store.DB.CloneAppend builds the next tail (events the tick
//     references but the tail never held are adopted verbatim from the
//     global table first, so per-event metadata stays globally agreed), and
//     its three remaps are rebuilt at O(tail) cost. The tail's flat g2lEv is
//     dropped rather than copied — adoption renumbers tail rows, and a fresh
//     flat inverse would cost O(global events) per tick — so tail lookups go
//     through localEvent's search of the ascending l2gEv instead.
//   - Per-event metadata (NumArticles, FirstMention, Interval) of events
//     that gained mentions: a column of the global table, and of each
//     non-tail part holding a copy of the event, is copied once when the
//     tick first changes a value in it. These copies are the part of a tick
//     that is not O(tick): one int32 column of the global table for nearly
//     every non-empty tick, and of the touched parts.
//   - New events extend the global table, eventCountryLUT and the tail's
//     l2gEv by suffix. The feed assigns GlobalEventIDs in arrival order, so a
//     tick's unknown ids exceed the stored maximum and land past every
//     existing global row; the columns grow with append, into spare capacity
//     past the length any earlier snapshot can see. That is safe only under
//     a linear history — each world appended to at most once — which Log's
//     writer lock provides (see ownGrowth). A tick that breaks the id
//     property falls back to the cold-start constructor (New: full K-way
//     re-merge), counted in shard_log_append_fallback_total.
//
// Only the tail's snapshot version moves (CloneAppend bumps it): cached
// results whose window touches the tail go stale through StaleKey while
// cold windows stay warm. Non-tail parts keep their versions — per-event
// metadata is the same global-not-windowed data it was at split time.
func (s *DB) appendTail(evs []gdelt.Event, mns []gdelt.Mention) (next *DB, st store.AppendStats, dirtied []int, err error) {
	ti := len(s.parts) - 1
	tail := s.parts[ti]
	tailLo := s.bounds[ti]
	base := s.meta.Start.IntervalIndex()
	for i := range mns {
		if mns[i].MentionType != gdelt.MentionTypeWeb {
			continue
		}
		iv := mns[i].MentionTime.IntervalIndex() - base
		if iv >= 0 && iv < int64(s.meta.Intervals) && int32(iv) < tailLo {
			return nil, st, nil, fmt.Errorf(
				"shard: append mention at interval %d below the tail window [%d, %d)",
				iv, tailLo, s.meta.Intervals)
		}
	}

	// Home events the tick names — in a mention or as a re-delivered event
	// record — that the world knows but the tail never held: copy their rows
	// verbatim from the global table, so the store-level fold resolves the
	// mentions, counts the records as duplicates, and leaves every copy of
	// the event agreeing. Ids unknown globally too stay with the fold (new
	// events; dangling mentions).
	var adoptG []int32
	considered := make(map[int64]bool)
	consider := func(id int64) {
		if considered[id] {
			return
		}
		considered[id] = true
		if tail.EventRowByID(id) >= 0 {
			return
		}
		if g := s.globalEventRow(id); g >= 0 {
			adoptG = append(adoptG, g)
		}
	}
	for i := range mns {
		if mns[i].MentionType == gdelt.MentionTypeWeb {
			consider(mns[i].GlobalEventID)
		}
	}
	for i := range evs {
		consider(evs[i].GlobalEventID)
	}
	slices.Sort(adoptG) // global rows ascend with ids
	var adopt store.EventTable
	for _, g := range adoptG {
		adopt.AppendRow(&s.events, int(g))
	}

	newTail, st, err := tail.CloneAppend(adopt, evs, mns)
	if err != nil {
		return nil, st, nil, err
	}
	c := *s
	next = &c
	next.parts = slices.Clone(s.parts)
	next.parts[ti] = newTail

	// Extend the tail's source remap for sources first seen in this tick,
	// interning into a private copy of the global dictionary if it lacks one.
	srcRemap := append(make([]int32, 0, newTail.Sources.Len()), s.l2gSrc[ti]...)
	for ls := len(srcRemap); ls < newTail.Sources.Len(); ls++ {
		name := newTail.Sources.Name(int32(ls))
		g := next.sources.Lookup(name)
		if g < 0 {
			if next.sources == s.sources {
				next.sources = s.sources.Clone()
			}
			g = next.sources.Intern(name)
		}
		srcRemap = append(srcRemap, g)
	}
	next.l2gSrc = slices.Clone(s.l2gSrc)
	next.l2gSrc[ti] = srcRemap

	// Propagate the tail's per-event metadata to the global table and to
	// every other part's copy of each touched event. Touched rows unknown to
	// the global table are this tick's new events.
	te := &newTail.Events
	global := newMetaCow(&next.events)
	partCow := make(map[int]*metaCow)
	var newRows []int32
	for _, r := range st.TouchedEventRows {
		g := s.globalEventRow(te.ID[r])
		if g < 0 {
			newRows = append(newRows, r)
			continue
		}
		n, fm, iv := te.NumArticles[r], te.FirstMention[r], te.Interval[r]
		global.set(g, n, fm, iv)
		for pi := 0; pi < ti; pi++ {
			lr := s.localEvent(pi, g)
			if lr < 0 {
				continue
			}
			pe := &s.parts[pi].Events
			if pe.NumArticles[lr] == n && pe.FirstMention[lr] == fm && pe.Interval[lr] == iv {
				continue
			}
			mc := partCow[pi]
			if mc == nil {
				cp := s.parts[pi].ShallowClone()
				next.parts[pi] = cp
				mc = newMetaCow(&cp.Events)
				partCow[pi] = mc
				dirtied = append(dirtied, pi)
			}
			mc.set(lr, n, fm, iv)
		}
	}

	// New events: suffix extension when every new id lies past the stored
	// maximum (touched rows ascend by id, so checking the first suffices),
	// full re-merge otherwise.
	oldE := s.events.Len()
	tailRemap := mergeAscending(s.l2gEv[ti], adoptG)
	if (len(newRows) > 0 && oldE > 0 && te.ID[newRows[0]] < s.events.ID[oldE-1]) ||
		len(tailRemap)+len(newRows) != te.Len() {
		mAppendFallback.Inc()
		next, err = New(next.parts, s.bounds, next.sources, s.themes, s.report)
		if err != nil {
			return nil, st, nil, fmt.Errorf("shard: append left shards disagreeing: %w", err)
		}
		return next, st, dirtied, nil
	}
	ev := &next.events
	for _, r := range newRows {
		tailRemap = append(tailRemap, int32(ev.Len()))
		ev.AppendRow(te, int(r))
		next.eventCountryLUT = append(next.eventCountryLUT, int32(te.Country[r]))
	}
	next.l2gEv = slices.Clone(s.l2gEv)
	next.l2gEv[ti] = tailRemap
	next.g2lEv = slices.Clone(s.g2lEv)
	next.g2lEv[ti] = nil
	return next, st, dirtied, nil
}

// metaCow puts the three per-event metadata columns of one event table
// under copy-on-write for the duration of one tick.
type metaCow struct {
	num, first, iv cowInt32
}

func newMetaCow(ev *store.EventTable) *metaCow {
	return &metaCow{
		num:   cowInt32{col: &ev.NumArticles},
		first: cowInt32{col: &ev.FirstMention},
		iv:    cowInt32{col: &ev.Interval},
	}
}

func (m *metaCow) set(row, numArticles, firstMention, interval int32) {
	m.num.set(row, numArticles)
	m.first.set(row, firstMention)
	m.iv.set(row, interval)
}

// cowInt32 is one shared column: the first set that changes a value swaps
// in a private copy, later sets write it in place. The copy carries spare
// capacity so that the suffix appends of this and the following ticks do
// not each pay a second whole-column reallocation.
type cowInt32 struct {
	col   *[]int32
	owned bool
}

func (c *cowInt32) set(i, v int32) {
	if (*c.col)[i] == v {
		return
	}
	if !c.owned {
		n := len(*c.col)
		own := make([]int32, n, n+n/16+64)
		copy(own, *c.col)
		*c.col, c.owned = own, true
	}
	(*c.col)[i] = v
}

// mergeAscending merges two ascending, disjoint row lists.
func mergeAscending(a, b []int32) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if a[0] < b[0] {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// globalEventRow returns the global row of a GlobalEventID, or -1.
func (s *DB) globalEventRow(id int64) int32 {
	if g, ok := slices.BinarySearch(s.events.ID, id); ok {
		return int32(g)
	}
	return -1
}

// localEvent returns part i's local row of global event ev, or -1 when the
// part does not hold it. g2lEv[i] is the flat inverse of l2gEv[i] over the
// global rows that existed when it was built (assembly, or the part's
// seal): later events cannot be in a sealed part, and the appended tail has
// no flat inverse at all (see appendTail), so rows past its end resolve
// through the ascending l2gEv[i].
func (s *DB) localEvent(i int, ev int32) int32 {
	if g := s.g2lEv[i]; int(ev) < len(g) {
		return g[ev]
	}
	return s.searchLocalEvent(i, ev)
}

// searchLocalEvent is localEvent's slow path; kept out of line so the flat
// lookup inlines into the per-event kernel loops.
//
//go:noinline
func (s *DB) searchLocalEvent(i int, ev int32) int32 {
	l2g := s.l2gEv[i]
	if n := len(l2g); n == 0 || ev > l2g[n-1] {
		return -1
	}
	if lr, ok := slices.BinarySearch(l2g, ev); ok {
		return int32(lr)
	}
	return -1
}

// ownGrowth returns a copy of s whose growable global columns have no spare
// capacity, so the first suffix append reallocates them. appendTail grows
// these columns in place past their length, which is invisible to earlier
// snapshots but would let two histories started from one world (two logs
// over the same split, a log and its caller) overwrite each other's
// suffix; a log therefore takes ownership of the growth region once, at
// construction, and keeps its history linear under its writer lock.
func (s *DB) ownGrowth() *DB {
	c := *s
	ev := &c.events
	ev.ID = slices.Clip(ev.ID)
	ev.Day = slices.Clip(ev.Day)
	ev.Interval = slices.Clip(ev.Interval)
	ev.Country = slices.Clip(ev.Country)
	ev.NumArticles = slices.Clip(ev.NumArticles)
	ev.FirstMention = slices.Clip(ev.FirstMention)
	ev.SourceURL = slices.Clip(ev.SourceURL)
	c.eventCountryLUT = slices.Clip(c.eventCountryLUT)
	return &c
}
