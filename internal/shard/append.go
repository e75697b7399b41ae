package shard

import (
	"fmt"
	"slices"

	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/obs"
	"gdeltmine/internal/store"
)

var mAppendFallback = obs.Default.Counter("shard_log_append_fallback_total",
	"appends that rebuilt the world with the cold-start K-way merge because the incremental result failed its row count")

// appendTail returns the world after one feed tick is folded into the tail
// part. s — a published snapshot — is never written: the result is a struct
// copy of s that shares everything the tick does not change and replaces,
// copy-on-write, exactly what it does.
//
// Shared by reference with s: every sealed part the tick does not touch,
// bounds, meta, report, theme remaps, the global source dictionary unless
// the tick interns a new source, the frozen run of the global event table
// and the event remaps of every part that holds no row of the recent run.
//
// Replaced:
//
//   - The tail: store.DB.CloneAppend builds the next tail (events the tick
//     references but the tail never held are adopted verbatim from the
//     global table first, so per-event metadata stays globally agreed), and
//     its three remaps are rebuilt at O(tail) cost. The tail has no flat
//     s2lEv — adoption and inserts renumber its rows every tick, and a flat
//     inverse costs O(global events) — so tail lookups go through
//     localEvent's search of the ascending l2gEv.
//   - Per-event metadata (NumArticles, FirstMention, Interval) of events
//     that gained mentions: a column of the global table's run holding the
//     event, and of each non-tail part holding a copy of it, is copied once
//     when the tick first changes a value in it.
//   - New events are merged into the global table by id (globalEvents.insert)
//     wherever their ids fall; the feed does not deliver ids in order. Rows
//     past an insert move up, so l2gEv of each part reaching past the lowest
//     insert is rewritten; the flat inverses go by seq and stay.
//
// What a tick costs beyond its own rows and the tail is therefore set by how
// far down the global table it reaches: the recent run and the remaps of
// the parts sealed since for the usual tick, one int32 column of the frozen
// run for a mention of an older event, the whole table for an event whose
// id lies below the recent run (see globalEvents for the measured shares).
// The cold-start constructor (New: full K-way re-merge) is reached only if
// the result fails its own row count, counted in
// shard_log_append_fallback_total.
//
// Only the tail's snapshot version moves (CloneAppend bumps it). Non-tail
// parts keep their versions although their copies of a mentioned event's
// metadata change, so only answers that read nothing but their window's
// mention rows may key on the overlapping shards alone: such entries over
// cold windows stay warm, and every other entry goes stale through
// StaleKey (see DB.CacheWindow).
func (s *DB) appendTail(evs []gdelt.Event, mns []gdelt.Mention) (next *DB, st store.AppendStats, err error) {
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
			return nil, st, fmt.Errorf(
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
		if g := s.events.row(id); g >= 0 {
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
		adopt.AppendRow(s.events.at(int(g)))
	}

	newTail, st, err := tail.CloneAppend(adopt, evs, mns)
	if err != nil {
		return nil, st, err
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
	ev := &next.events
	frozen, recent := newMetaCow(&ev.frozen), newMetaCow(&ev.recent)
	partCow := make(map[int]*metaCow)
	var newRows []int32
	for _, r := range st.TouchedEventRows {
		g := s.events.row(te.ID[r])
		if g < 0 {
			newRows = append(newRows, r)
			continue
		}
		n, fm, iv := te.NumArticles[r], te.FirstMention[r], te.Interval[r]
		ev.set(frozen, recent, g, n, fm, iv)
		seq := s.events.seq(g)
		for pi := 0; pi < ti; pi++ {
			lr := s.localEvent(pi, seq, g)
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
			}
			mc.set(lr, n, fm, iv)
		}
	}

	// New events (touched rows ascend by id) and the row shift they cause.
	at := ev.insert(te, newRows)
	next.l2gEv = slices.Clone(s.l2gEv)
	if len(at) > 0 {
		for i := 0; i < ti; i++ {
			if l := s.l2gEv[i]; len(l) > 0 && l[len(l)-1] >= at[0] {
				next.l2gEv[i] = shiftRows(l, at)
			}
		}
	}
	// The tail's rows are its old ones and the adopted ones, shifted, with
	// the new rows between them where their ids put them.
	held := shiftRows(mergeAscending(s.l2gEv[ti], adoptG), at)
	if len(held)+len(newRows) != te.Len() {
		mAppendFallback.Inc()
		next, err = New(next.parts, s.bounds, next.sources, s.themes, s.report)
		if err != nil {
			return nil, st, fmt.Errorf("shard: append left shards disagreeing: %w", err)
		}
		return next, st, nil
	}
	tailRemap := make([]int32, 0, te.Len())
	h := 0
	for j, r := range newRows {
		for len(tailRemap) < int(r) {
			tailRemap = append(tailRemap, held[h])
			h++
		}
		tailRemap = append(tailRemap, at[j]+int32(j))
	}
	next.l2gEv[ti] = append(tailRemap, held[h:]...)
	if s.s2lEv[ti] != nil {
		next.s2lEv = slices.Clone(s.s2lEv)
		next.s2lEv[ti] = nil
	}
	return next, st, nil
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
// in a private copy, later sets write it in place.
type cowInt32 struct {
	col   *[]int32
	owned bool
}

func (c *cowInt32) set(i, v int32) {
	if (*c.col)[i] == v {
		return
	}
	if !c.owned {
		*c.col, c.owned = slices.Clone(*c.col), true
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

// localEvent returns part i's local row of a global event, or -1 when the
// part does not hold it. s2lEv[i] is the flat inverse of l2gEv[i] by event
// seq, over the numbers handed out when the part was assembled or sealed.
// The caller names the event both ways: by seq (globalEvents.seq) and row.
func (s *DB) localEvent(i int, seq, row int32) int32 {
	if f := s.s2lEv[i]; int(seq) < len(f) {
		return f[seq]
	}
	return s.searchLocalEvent(i, row)
}

// searchLocalEvent is localEvent past the flat inverse; kept out of line so
// the flat lookup inlines into the per-event kernel loops. A sealed part
// gains no events, so an event numbered past its inverse is not in it; the
// tail has no flat inverse (see appendTail) and is searched by row.
//
//go:noinline
func (s *DB) searchLocalEvent(i int, row int32) int32 {
	if s.s2lEv[i] != nil {
		return -1
	}
	if lr, ok := slices.BinarySearch(s.l2gEv[i], row); ok {
		return int32(lr)
	}
	return -1
}
