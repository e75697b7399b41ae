package shard

import (
	"slices"

	"gdeltmine/internal/store"
)

// globalEvents is the global event table: every event any part holds, once,
// ascending by GlobalEventID — what the K-way merge of the parts' event
// tables yields, and the row order every lower-row tie-break relies on.
//
// The rows are stored as two runs, frozen then recent, so that the append
// log can change the table at a cost that does not grow with it. A feed
// tick inserts events and bumps the metadata of events, and nearly all of
// both land among the newest rows — on the synthetic feed 97 % of the
// inserts within 100 rows of the end, though ids do not arrive in order —
// so a tick rebuilds the short recent run and shares the frozen one with
// the previous snapshot. Only a tick that reaches below the recent run pays
// for the table: an insert re-merges the frozen run, a bump copies the
// frozen metadata column it changes. No column of a published table is
// ever written, not even past its length.
//
// New puts every row in the frozen run. Appends grow the recent run, and a
// seal moves its settled prefix — the rows below low, which nothing wrote
// since the seal before — into the frozen run (freeze), so the recent run
// holds what the feed is still writing, not what the log has taken in.
//
// An insert renumbers the rows above it, so each event also carries a seq:
// its number in arrival order (the row, in a world New assembled), which it
// keeps. The per-part flat inverses are indexed by seq and therefore never
// move (see DB.localEvent).
type globalEvents struct {
	frozen store.EventTable // rows [0, frozen.Len())
	recent store.EventTable // rows [frozen.Len(), Len())
	// frozenSeq and recentSeq are the runs' seq columns; seqs counts the
	// numbers handed out.
	frozenSeq, recentSeq []int32
	seqs                 int32
	// low is the lowest row of the recent run inserted or bumped since the
	// last freeze, Len() when there was none.
	low int32
}

// Len returns the number of global events.
func (e *globalEvents) Len() int { return len(e.frozen.ID) + len(e.recent.ID) }

// at returns the run holding global row g and g's row within it.
func (e *globalEvents) at(g int) (*store.EventTable, int) {
	if n := len(e.frozen.ID); g >= n {
		return &e.recent, g - n
	}
	return &e.frozen, g
}

// runs returns the two runs in row order, for scans that read whole
// columns: row r of runs()[1] is global row frozen.Len()+r.
func (e *globalEvents) runs() [2]*store.EventTable {
	return [2]*store.EventTable{&e.frozen, &e.recent}
}

func (e *globalEvents) ID(g int) int64          { t, r := e.at(g); return t.ID[r] }
func (e *globalEvents) Interval(g int) int32    { t, r := e.at(g); return t.Interval[r] }
func (e *globalEvents) NumArticles(g int) int32 { t, r := e.at(g); return t.NumArticles[r] }
func (e *globalEvents) SourceURL(g int) string  { t, r := e.at(g); return t.SourceURL[r] }

// seq returns the arrival number of global row g.
func (e *globalEvents) seq(g int32) int32 {
	if n := int32(len(e.frozenSeq)); g >= n {
		return e.recentSeq[g-n]
	}
	return e.frozenSeq[g]
}

// search returns the global row of a GlobalEventID and whether the table
// holds it; without it, the row it would be inserted at.
func (e *globalEvents) search(id int64) (int32, bool) {
	t, off := &e.frozen, 0
	if n := len(t.ID); n == 0 || id > t.ID[n-1] {
		t, off = &e.recent, n
	}
	r, ok := slices.BinarySearch(t.ID, id)
	return int32(off + r), ok
}

// row returns the global row of a GlobalEventID, or -1.
func (e *globalEvents) row(id int64) int32 {
	if g, ok := e.search(id); ok {
		return g
	}
	return -1
}

// insert merges rows of te — ascending by id, none of them in the table —
// into private copies of the runs they fall in and returns, ascending, the
// old global row each was inserted at: old row g is afterwards row
// g + |{at <= g}|.
func (e *globalEvents) insert(te *store.EventTable, rows []int32) (at []int32) {
	if len(rows) == 0 {
		return nil
	}
	at = make([]int32, len(rows))
	var deep, late store.EventTable
	for j, r := range rows {
		at[j], _ = e.search(te.ID[r])
		if int(at[j]) < e.frozen.Len() {
			deep.AppendRow(te, int(r))
		} else {
			late.AppendRow(te, int(r))
		}
	}
	low := shiftRow(e.low, at)
	if n := deep.Len(); n < len(rows) {
		low = min(low, at[n]+int32(n))
	}
	e.low = low
	e.frozen, e.frozenSeq = e.merge(&e.frozen, e.frozenSeq, &deep)
	e.recent, e.recentSeq = e.merge(&e.recent, e.recentSeq, &late)
	return at
}

// merge returns run merged with add and its seq column, the added rows
// taking the next numbers; the run itself when add is empty.
func (e *globalEvents) merge(run *store.EventTable, seq []int32, add *store.EventTable) (store.EventTable, []int32) {
	if add.Len() == 0 {
		return *run, seq
	}
	merged, remap := store.MergeEvents(run, add)
	out := make([]int32, merged.Len())
	for r := range out {
		out[r] = -1
	}
	for r, to := range remap {
		out[to] = seq[r]
	}
	for r := range out {
		if out[r] < 0 {
			out[r] = e.seqs
			e.seqs++
		}
	}
	return merged, out
}

// shiftRow maps an old global row across the inserts at the ascending old
// rows at.
func shiftRow(g int32, at []int32) int32 {
	k, _ := slices.BinarySearch(at, g+1) // the first insert past g
	return g + int32(k)
}

// shiftRows is shiftRow over an ascending row list, in one pass.
func shiftRows(rows, at []int32) []int32 {
	out := make([]int32, len(rows))
	k := 0
	for i, g := range rows {
		for k < len(at) && at[k] <= g {
			k++
		}
		out[i] = g + int32(k)
	}
	return out
}

// set overwrites the per-event metadata of global row g, through the
// copy-on-write columns of the run that holds it.
func (e *globalEvents) set(frozen, recent *metaCow, g, numArticles, firstMention, interval int32) {
	if n := int32(e.frozen.Len()); g >= n {
		recent.set(g-n, numArticles, firstMention, interval)
		e.low = min(e.low, g)
		return
	}
	frozen.set(g, numArticles, firstMention, interval)
}

// freeze returns the table with the rows below low moved from the recent to
// the frozen run and low reset. Global rows keep their numbers. The frozen
// columns are reallocated — O(table), once per seal.
func (e globalEvents) freeze() globalEvents {
	k := int(e.low) - e.frozen.Len()
	e.low = int32(e.Len())
	if k > 0 {
		settled := e.recent.Slice(0, k)
		e.frozen, _ = store.MergeEvents(&e.frozen, &settled)
		e.recent = e.recent.Slice(k, e.recent.Len())
		e.frozenSeq = slices.Concat(e.frozenSeq, e.recentSeq[:k])
		e.recentSeq = e.recentSeq[k:]
	}
	return e
}
