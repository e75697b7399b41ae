package shard

import (
	"math"
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
// An insert renumbers the rows above it; the parts' l2gEv remaps move with
// them (shiftRows), and they are the only index from a global row to a
// part's (see partCursor).
type globalEvents struct {
	frozen store.EventTable // rows [0, frozen.Len())
	recent store.EventTable // rows [frozen.Len(), Len())
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
	if deep.Len() > 0 {
		e.frozen, _ = store.MergeEvents(&e.frozen, &deep)
	}
	if late.Len() > 0 {
		e.recent, _ = store.MergeEvents(&e.recent, &late)
	}
	return at
}

// shiftRow maps an old global row across the inserts at the ascending old
// rows at.
func shiftRow(g int32, at []int32) int32 {
	k, _ := slices.BinarySearch(at, g+1) // the first insert past g
	return g + int32(k)
}

// shiftRows is shiftRow over an ascending row list, in one pass.
func shiftRows(rows, at []int32) []int32 {
	out := newRemap(len(rows))
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
	}
	return e
}

// newRemap returns an l2gEv of n rows whose capacity holds one row more,
// set to math.MaxInt32: the stop a partCursor reads past the part's last
// event instead of checking its length. Every l2gEv is made by it.
func newRemap(n int) []int32 {
	r := make([]int32, n+1)
	r[n] = math.MaxInt32
	return r[:n]
}

// partCursor finds global event rows in one part by walking the part's
// ascending l2gEv. The rows asked for must ascend strictly, so each lookup
// gallops on from where the last one stopped: a batch seeks once, then
// only moves forward, and a dense batch steps without seeking.
type partCursor struct {
	part  int     // the part's index
	remap []int32 // the part's l2gEv with the stop past its end
	at    int     // every row of remap[:at] lies below the rows still to come
}

// cursors returns, in part order, a cursor into each part for a batch of
// global rows that ascend strictly within [lo, hi]. A part whose remap
// range misses [lo, hi] holds none of them and gets no cursor, so a batch
// of recent rows visits only the parts sealed since.
func (s *DB) cursors(lo, hi int32) []partCursor {
	var cs []partCursor
	for i, r := range s.l2gEv {
		if n := len(r); n > 0 && r[0] <= hi && r[n-1] >= lo {
			cs = append(cs, partCursor{part: i, remap: r[:n+1]})
		}
	}
	return cs
}

// find returns the part's local row of global row g, or -1 when the part
// does not hold it. g must lie above every row asked for before. The
// cursor gallops: it jumps ahead by doubling strides while it stays below
// g, halves the stride when a jump would not, and steps by one at the
// end, so reaching a row d entries on costs O(log d) compares, a dense
// batch one or two. It makes no call and inlines into the kernel loops.
func (c *partCursor) find(g int32) int32 {
	r, at := c.remap, c.at
	for step := 1; r[at] < g; { // r[at] < g: at is not the stop
		if n := at + step; n < len(r) && r[n] < g {
			at, step = n, 2*step
		} else if step > 1 {
			step /= 2
		} else {
			at++
		}
	}
	if r[at] != g {
		c.at = at
		return -1
	}
	c.at = at + 1
	return int32(at)
}
