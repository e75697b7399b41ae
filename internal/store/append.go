package store

import (
	"fmt"
	"slices"
	"sort"

	"gdeltmine/internal/gdelt"
)

// Stream appends. A feed chunk is one 15-minute update: an events file and a
// mentions file, whose rows gdelt.ParseChunk parses as it parses every
// chunk the batch converter reads. CloneAppend (clone.go) is the one entry
// point over the table-mutation core here (appendRows / mergeEventRows): it
// returns a new DB holding the chunk and leaves the receiver untouched —
// the copy-on-write step of the partitioned append log (internal/shard.Log),
// whose published snapshots are immutable. appendRows turns rows into
// stored rows by the row rules of rows.go, the ones Builder applies: which
// mentions are kept, the defect a dropped one files, the delay clamp, an
// event's interval and country, and what a first mention refines.
//
// The dangerous part is not the column appends but the derived state: the
// by-source postings, the event-major payload, the per-source event bitmaps
// the selection queries read (srcEvBM/srcRepEvBM), the value bitmaps and
// the quarter row index are all materialized from the tables, so an append
// that extended the columns without rebuilding them would leave the
// index-pruned plans answering from the pre-append snapshot
// while the closure scan sees the new rows — a silent wrong-answer
// divergence, not a crash. CloneAppend therefore runs buildDerived exactly
// once, after all table mutation (event adoption included), and gives the
// clone the next snapshot version so result caches keyed on Version()
// retire everything computed against the old data. The rebuild is O(rows
// of this store) for the postings and the payload, and rebuilds only the
// dirty keys of every keyed index; DiffFromRebuild is its oracle.
//
// GKG annotations are not extended by appends — the GKG table keeps its own
// interval column, so theme queries simply do not cover the appended span.

// AppendStats reports what an append folded in and dropped, mirroring
// BuildStats for the batch path.
type AppendStats struct {
	// AppendedEvents and AppendedMentions count the rows actually added.
	AppendedEvents, AppendedMentions int
	// DuplicateEvents counts chunk events whose GlobalEventID already
	// exists; the stored record wins, as in Builder.Finish.
	DuplicateEvents int64
	// DanglingMentions counts mentions referencing an unknown event.
	DanglingMentions int64
	// DroppedMentions counts non-web mentions and mentions captured outside
	// the archive span.
	DroppedMentions int64
	// TouchedEventRows lists the distinct event rows (post-append indexes)
	// whose per-event metadata changed — appended events plus events that
	// gained mentions. The sharded tail append uses it to propagate the
	// global per-event columns to the other shards' copies.
	TouchedEventRows []int32
}

// appendRows is the table half of an append: it stages and validates the
// chunk, merges unknown events into the ID-sorted event table and appends
// the accepted mentions. Chunk mentions must not regress: every accepted
// mention's capture interval has to be at or past the last stored interval
// (the tail-only contract of the time-ordered feed); a regression is an
// error and nothing is mutated. Rows become stored rows by the row rules
// the Builder applies (rows.go), and dangling mentions are dropped and
// counted as Builder.Finish drops them, so appending a suffix of a feed
// equals rebuilding from the whole feed. New events are validated as
// Finish validates them (Table II's missing source URL and future event
// date), the date only when the event's first mention is in the same
// append. It reads and writes only the
// tables, the source dictionary and the report — never a derived index —
// so the caller must run buildDerived before the store is queried again.
func (db *DB) appendRows(evs []gdelt.Event, mns []gdelt.Mention) (AppendStats, error) {
	var st AppendStats
	base := db.Meta.Start.IntervalIndex()

	// Stage the new events: unknown IDs only, sorted by ID for the merge.
	var newEvs []gdelt.Event
	seen := make(map[int64]bool, len(evs))
	for i := range evs {
		id := evs[i].GlobalEventID
		if seen[id] || db.EventRowByID(id) >= 0 {
			st.DuplicateEvents++
			continue
		}
		seen[id] = true
		newEvs = append(newEvs, evs[i])
	}
	sort.Slice(newEvs, func(a, b int) bool { return newEvs[a].GlobalEventID < newEvs[b].GlobalEventID })

	// Validate the mention batch BEFORE mutating anything. Event references
	// are resolved against the union of stored and staged event IDs; rows
	// are assigned after the merge below.
	lastIv := int32(0)
	if n := db.Mentions.Len(); n > 0 {
		lastIv = db.Mentions.Interval[n-1]
	}
	type pending struct {
		mi int // index into mns
		iv int32
	}
	var accept []pending
	for i := range mns {
		mn := &mns[i]
		iv := mn.MentionTime.IntervalIndex() - base
		if !KeepMention(mn, iv, db.Meta.Intervals) {
			st.DroppedMentions++
			dropMention(db.Report, mn)
			continue
		}
		if int32(iv) < lastIv {
			return AppendStats{}, fmt.Errorf(
				"store: append regresses to interval %d behind stored tail %d", iv, lastIv)
		}
		if db.EventRowByID(mn.GlobalEventID) < 0 && !seen[mn.GlobalEventID] {
			st.DanglingMentions++
			continue
		}
		accept = append(accept, pending{mi: i, iv: int32(iv)})
	}

	// Merge the staged events into the ID-sorted table, rewriting the
	// mention table's event-row references across the shift. FirstMention
	// falls back to the event interval until a mention arrives, matching
	// Finish's treatment of mention-less events.
	if len(newEvs) > 0 {
		var add EventTable
		for i := range newEvs {
			ev := &newEvs[i]
			iv := eventInterval(ev, base, db.Meta.Intervals)
			add.ID = append(add.ID, ev.GlobalEventID)
			add.Interval = append(add.Interval, iv)
			add.Country = append(add.Country, eventCountry(ev))
			add.NumArticles = append(add.NumArticles, 0)
			add.FirstMention = append(add.FirstMention, iv)
			add.SourceURL = append(add.SourceURL, ev.SourceURL)
		}
		db.mergeEventRows(add)
		st.AppendedEvents = len(newEvs)
	}

	// Stable-sort accepted mentions by interval (the builder's global sort
	// restricted to the chunk) and append the columns.
	sort.SliceStable(accept, func(a, b int) bool { return accept[a].iv < accept[b].iv })
	touched := make(map[int32]bool, len(accept)+len(newEvs))
	for i := range newEvs {
		touched[db.EventRowByID(newEvs[i].GlobalEventID)] = true
	}
	for _, p := range accept {
		mn := &mns[p.mi]
		row := db.EventRowByID(mn.GlobalEventID)
		evIv := mn.EventTime.IntervalIndex() - base
		db.Mentions.EventRow = append(db.Mentions.EventRow, row)
		db.Mentions.Source = append(db.Mentions.Source, db.Sources.Intern(mn.SourceName))
		db.Mentions.Interval = append(db.Mentions.Interval, p.iv)
		db.Mentions.Delay = append(db.Mentions.Delay, mentionDelay(p.iv, evIv))
		db.Mentions.DocLen = append(db.Mentions.DocLen, mn.DocLen)
		db.Mentions.Tone = append(db.Mentions.Tone, mn.DocTone)
		db.Mentions.Confidence = append(db.Mentions.Confidence, mn.Confidence)
		db.Events.countMention(row, p.iv, evIv, db.Meta.Intervals)
		touched[row] = true
		st.AppendedMentions++
	}

	// Per-event validation, as Finish runs it: every new event's source
	// URL, and its recorded day against its first mention. A new event
	// whose first mention came in this append holds its interval in
	// FirstMention; one whose mentions come later cannot be checked,
	// because the store keeps no day.
	for i := range newEvs {
		ev := &newEvs[i]
		var first gdelt.Timestamp
		if row := db.EventRowByID(ev.GlobalEventID); db.Events.NumArticles[row] > 0 {
			first = gdelt.IntervalStart(base + int64(db.Events.FirstMention[row]))
		}
		gdelt.ValidateEvent(db.Report, ev, first)
	}

	st.TouchedEventRows = make([]int32, 0, len(touched))
	for r := range touched {
		st.TouchedEventRows = append(st.TouchedEventRows, r)
	}
	sort.Slice(st.TouchedEventRows, func(a, b int) bool {
		return st.TouchedEventRows[a] < st.TouchedEventRows[b]
	})
	return st, nil
}

// mergeEventRows merges add — already-derived event rows, strictly
// ascending by ID and disjoint from the stored IDs — into the ID-sorted
// event table, and rewrites Mentions.EventRow across the row shift. The
// merged columns are fresh allocations; the previous ones are not written.
// Tables only: derived indexes are the caller's to rebuild.
func (db *DB) mergeEventRows(add EventTable) {
	if add.Len() == 0 {
		return
	}
	merged, remap := MergeEvents(&db.Events, &add)
	for i, e := range db.Mentions.EventRow {
		db.Mentions.EventRow[i] = remap[e]
	}
	db.Events = merged
}

// MergeEvents merges two event tables, each strictly ascending by ID and
// sharing no ID, into a freshly allocated table; neither input is written.
// remap[r] is the merged row of old's row r.
func MergeEvents(old, add *EventTable) (merged EventTable, remap []int32) {
	oldN, addN := old.Len(), add.Len()
	n := oldN + addN
	merged = MakeEventTable(n)
	remap = make([]int32, oldN)
	oi := 0
	for ai := 0; ai <= addN; ai++ {
		// The run of old rows below add's row ai; after its last row, the rest.
		end := oldN
		if ai < addN {
			k, _ := slices.BinarySearch(old.ID[oi:], add.ID[ai])
			end = oi + k
		}
		for r := oi; r < end; r++ {
			remap[r] = int32(r + ai)
		}
		run := old.Slice(oi, end)
		merged.ID = append(merged.ID, run.ID...)
		merged.Interval = append(merged.Interval, run.Interval...)
		merged.Country = append(merged.Country, run.Country...)
		merged.NumArticles = append(merged.NumArticles, run.NumArticles...)
		merged.FirstMention = append(merged.FirstMention, run.FirstMention...)
		merged.SourceURL = append(merged.SourceURL, run.SourceURL...)
		oi = end
		if ai < addN {
			merged.AppendRow(add, ai)
		}
	}
	return merged, remap
}
