package shard

import (
	"cmp"
	"math"
	"slices"

	"gdeltmine/internal/store"
)

// chunkRows bounds the rows of one chunk of the global event table. A tick
// copies each chunk it writes, so this sets what an insert or a metadata
// bump costs beyond the tick's own rows: 40 B a row, ~48 KB a chunk with
// allocation rounding.
const chunkRows = 1024

// globalEvents is the global event table: every event any part holds, once,
// ascending by GlobalEventID — what the K-way merge of the parts' event
// tables yields, and the row order every lower-row tie-break relies on.
//
// The rows are stored as a list of chunks of at most chunkRows rows, so
// that the append log can change the table at a cost that does not grow
// with it. No chunk of a published table is ever written, not even past its
// length: a tick clones the list and replaces only the chunks it writes.
// An insert merges the tick's new rows into a copy of the chunk they fall
// in, split evenly when it outgrows chunkRows (splice); a metadata bump
// copies the column it changes of the chunk holding the event (bumps). A
// feed tick does both nearly always among the newest rows — on the
// synthetic feed 97 % of the inserts land within 100 rows of the end,
// though ids do not arrive in order — so it copies a chunk or two, and
// every snapshot shares the rest.
//
// New cuts its merged table into chunks that share its storage. Rows
// appended past the end join the open chunk, the last one, until a seal
// closes it (seal); the next such row starts a new chunk, so the ticks
// after a seal copy none of the rows appended before it.
//
// An insert renumbers the rows above it; the parts' l2gEv remaps move with
// them (shiftRows), and they are the only index from a global row to a
// part's (see partCursor).
type globalEvents struct {
	chunks []*store.EventTable // in row order, none empty
	ends   []int32             // ends[c]: the global row past chunk c's last
	open   bool                // rows appended past the end join the last chunk
}

// cutEvents returns the table of t's rows, cut into closed chunks of
// chunkRows rows that share t's storage.
func cutEvents(t *store.EventTable) globalEvents {
	views := make([]store.EventTable, (t.Len()+chunkRows-1)/chunkRows)
	chunks := make([]*store.EventTable, len(views))
	for c := range views {
		views[c] = t.Slice(c*chunkRows, min((c+1)*chunkRows, t.Len()))
		chunks[c] = &views[c]
	}
	return globalEvents{chunks: chunks, ends: chunkEnds(chunks)}
}

// chunkEnds returns the cumulative row ends of chunks.
func chunkEnds(chunks []*store.EventTable) []int32 {
	ends := make([]int32, len(chunks))
	n := 0
	for c, t := range chunks {
		n += t.Len()
		ends[c] = int32(n)
	}
	return ends
}

// Len returns the number of global events.
func (e *globalEvents) Len() int {
	if n := len(e.ends); n > 0 {
		return int(e.ends[n-1])
	}
	return 0
}

// start returns the global row of chunk c's first row.
func (e *globalEvents) start(c int) int {
	if c == 0 {
		return 0
	}
	return int(e.ends[c-1])
}

// chunkOf returns the chunk holding global row g, or len(chunks) for
// g = Len().
func (e *globalEvents) chunkOf(g int) int {
	c, _ := slices.BinarySearch(e.ends, int32(g)+1)
	return c
}

// at returns the chunk holding global row g and g's row within it.
func (e *globalEvents) at(g int) (*store.EventTable, int) {
	c := e.chunkOf(g)
	return e.chunks[c], g - e.start(c)
}

// span calls fn for each chunk holding rows of [lo, hi), in row order, with
// its rows [a, b) that fall in the range and base, the global row of its
// first row. It searches for lo once and then walks, so a scan reads the
// chunks in place.
func (e *globalEvents) span(lo, hi int, fn func(t *store.EventTable, a, b, base int)) {
	for c := e.chunkOf(lo); lo < hi; c++ {
		base, end := e.start(c), min(int(e.ends[c]), hi)
		fn(e.chunks[c], lo-base, end-base, base)
		lo = end
	}
}

func (e *globalEvents) ID(g int) int64         { t, r := e.at(g); return t.ID[r] }
func (e *globalEvents) Interval(g int) int32   { t, r := e.at(g); return t.Interval[r] }
func (e *globalEvents) SourceURL(g int) string { t, r := e.at(g); return t.SourceURL[r] }

// search returns the global row of a GlobalEventID and whether the table
// holds it; without it, the row it would be inserted at.
func (e *globalEvents) search(id int64) (int32, bool) {
	c, _ := slices.BinarySearchFunc(e.chunks, id, func(t *store.EventTable, id int64) int {
		return cmp.Compare(t.ID[t.Len()-1], id)
	})
	if c == len(e.chunks) {
		return int32(e.Len()), false
	}
	r, ok := slices.BinarySearch(e.chunks[c].ID, id)
	return int32(e.start(c) + r), ok
}

// row returns the global row of a GlobalEventID, or -1.
func (e *globalEvents) row(id int64) int32 {
	if g, ok := e.search(id); ok {
		return g
	}
	return -1
}

// insert merges rows of te — ascending by id, none of them in the table —
// into the table and returns, ascending, the old global row each was
// inserted at: old row g is afterwards row g + |{at <= g}|. Every chunk the
// rows fall in is replaced by spliced copies; a row past the end joins the
// open chunk, or opens a new one.
func (e *globalEvents) insert(te *store.EventTable, rows []int32) (at []int32) {
	if len(rows) == 0 {
		return nil
	}
	at = make([]int32, len(rows))
	for j, r := range rows {
		at[j], _ = e.search(te.ID[r])
	}
	n := int32(e.Len())
	// target returns the chunk old row p falls in: len(chunks) opens one.
	target := func(p int32) int {
		if p == n && e.open {
			return len(e.chunks) - 1
		}
		return e.chunkOf(int(p))
	}
	chunks := make([]*store.EventTable, 0, len(e.chunks)+2)
	next := 0 // the first old chunk not yet in chunks
	for j := 0; j < len(rows); {
		c, k := target(at[j]), j+1
		for k < len(rows) && target(at[k]) == c {
			k++
		}
		chunks = append(chunks, e.chunks[next:c]...)
		chunks = e.splice(chunks, c, te, rows[j:k], at[j:k])
		next, j = c+1, k
	}
	if next < len(e.chunks) {
		chunks = append(chunks, e.chunks[next:]...)
	}
	e.open = e.open || next > len(e.chunks)
	e.chunks, e.ends = chunks, chunkEnds(chunks)
	return at
}

// splice appends to list chunk c with the rows of te inserted before its
// old global rows at — a new chunk of them for c = len(chunks) — cut into
// even pieces of at most chunkRows rows that share one allocation.
func (e *globalEvents) splice(list []*store.EventTable, c int, te *store.EventTable, rows, at []int32) []*store.EventTable {
	var old store.EventTable
	base := e.Len()
	if c < len(e.chunks) {
		old, base = *e.chunks[c], e.start(c)
	}
	m := store.MakeEventTable(old.Len() + len(rows))
	prev := 0
	for j, r := range rows {
		p := int(at[j]) - base
		m.AppendRows(&old, prev, p)
		m.AppendRow(te, int(r))
		prev = p
	}
	m.AppendRows(&old, prev, old.Len())
	pieces := (m.Len() + chunkRows - 1) / chunkRows
	for i := range pieces {
		p := m.Slice(i*m.Len()/pieces, (i+1)*m.Len()/pieces)
		list = append(list, &p)
	}
	return list
}

// seal returns the table with its open chunk closed, merged into the chunk
// before it when the two fit in one: O(chunkRows), the table's share of a
// seal.
func (e globalEvents) seal() globalEvents {
	if !e.open {
		return e
	}
	e.open = false
	n := len(e.chunks)
	if n < 2 || e.chunks[n-2].Len()+e.chunks[n-1].Len() > chunkRows {
		return e
	}
	a, b := e.chunks[n-2], e.chunks[n-1]
	m := store.MakeEventTable(a.Len() + b.Len())
	m.AppendRows(a, 0, a.Len())
	m.AppendRows(b, 0, b.Len())
	e.chunks = append(e.chunks[:n-2:n-2], &m)
	e.ends = append(e.ends[:n-2:n-2], e.ends[n-1])
	return e
}

// bumps puts the per-event metadata of the table under copy-on-write for
// one tick.
type bumps struct {
	e   *globalEvents
	c   int      // the chunk of the last set, -1 before the first
	cow *metaCow // over the tick's copy of chunk c
}

// bumps gives the table its own chunk list for the tick.
func (e *globalEvents) bumps() *bumps {
	e.chunks = slices.Clone(e.chunks)
	return &bumps{e: e, c: -1}
}

// set overwrites the per-event metadata of global row g; rows must ascend.
// The first set in a chunk swaps in a shallow copy of it, whose columns
// metaCow copies when a value first changes.
func (b *bumps) set(g, numArticles, firstMention, interval int32) {
	e := b.e
	if b.c < 0 || g >= e.ends[b.c] {
		b.c = e.chunkOf(int(g))
		cp := *e.chunks[b.c]
		e.chunks[b.c] = &cp
		b.cow = newMetaCow(&cp)
	}
	b.cow.set(g-int32(e.start(b.c)), numArticles, firstMention, interval)
}

// shiftRows maps an ascending list of old global rows across the inserts at
// the ascending old rows at, in one pass.
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
