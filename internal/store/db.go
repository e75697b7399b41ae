package store

import (
	"fmt"
	"sort"
	"sync/atomic"

	"gdeltmine/internal/bitmap"
	"gdeltmine/internal/gdelt"
)

// Meta carries dataset-level constants.
type Meta struct {
	// Start is the timestamp of capture interval 0.
	Start gdelt.Timestamp
	// Intervals is the number of 15-minute capture intervals covered.
	Intervals int32
}

// EventTable is the columnar Events table, sorted by GlobalEventID.
type EventTable struct {
	ID           []int64
	Interval     []int32 // event capture interval (from mention EventTimeDate)
	Country      []int32 // index into gdelt.Countries, -1 untagged
	NumArticles  []int32 // recounted from the mentions table at build time
	FirstMention []int32 // capture interval of the earliest mention
	SourceURL    []string
}

// MakeEventTable returns an empty event table with room for exactly n
// rows, so a table filled by append holds no spare capacity.
func MakeEventTable(n int) EventTable {
	return EventTable{
		ID:           make([]int64, 0, n),
		Interval:     make([]int32, 0, n),
		Country:      make([]int32, 0, n),
		NumArticles:  make([]int32, 0, n),
		FirstMention: make([]int32, 0, n),
		SourceURL:    make([]string, 0, n),
	}
}

// Len returns the number of events.
func (t *EventTable) Len() int { return len(t.ID) }

// AppendRow appends row i of src, every column verbatim.
func (t *EventTable) AppendRow(src *EventTable, i int) {
	t.ID = append(t.ID, src.ID[i])
	t.Interval = append(t.Interval, src.Interval[i])
	t.Country = append(t.Country, src.Country[i])
	t.NumArticles = append(t.NumArticles, src.NumArticles[i])
	t.FirstMention = append(t.FirstMention, src.FirstMention[i])
	t.SourceURL = append(t.SourceURL, src.SourceURL[i])
}

// AppendRows appends rows [lo, hi) of src, every column verbatim.
func (t *EventTable) AppendRows(src *EventTable, lo, hi int) {
	t.ID = append(t.ID, src.ID[lo:hi]...)
	t.Interval = append(t.Interval, src.Interval[lo:hi]...)
	t.Country = append(t.Country, src.Country[lo:hi]...)
	t.NumArticles = append(t.NumArticles, src.NumArticles[lo:hi]...)
	t.FirstMention = append(t.FirstMention, src.FirstMention[lo:hi]...)
	t.SourceURL = append(t.SourceURL, src.SourceURL[lo:hi]...)
}

// Slice returns rows [lo, hi) as a table sharing t's storage.
func (t *EventTable) Slice(lo, hi int) EventTable {
	return EventTable{
		ID:           t.ID[lo:hi:hi],
		Interval:     t.Interval[lo:hi:hi],
		Country:      t.Country[lo:hi:hi],
		NumArticles:  t.NumArticles[lo:hi:hi],
		FirstMention: t.FirstMention[lo:hi:hi],
		SourceURL:    t.SourceURL[lo:hi:hi],
	}
}

// MentionTable is the columnar Mentions table, sorted by capture interval.
type MentionTable struct {
	EventRow   []int32 // row index into the event table
	Source     []int32 // source dictionary id
	Interval   []int32 // mention capture interval
	Delay      []int32 // publishing delay in intervals (>= 1; 0 marks defects)
	DocLen     []int32
	Tone       []float32
	Confidence []int8
}

// MakeMentionTable returns an empty mention table with room for exactly n
// rows, so a table filled by append holds no spare capacity.
func MakeMentionTable(n int) MentionTable {
	return MentionTable{
		EventRow:   make([]int32, 0, n),
		Source:     make([]int32, 0, n),
		Interval:   make([]int32, 0, n),
		Delay:      make([]int32, 0, n),
		DocLen:     make([]int32, 0, n),
		Tone:       make([]float32, 0, n),
		Confidence: make([]int8, 0, n),
	}
}

// Len returns the number of mentions.
func (t *MentionTable) Len() int { return len(t.EventRow) }

// DB is the loaded, immutable in-memory database.
type DB struct {
	Meta     Meta
	Sources  *Dictionary
	Events   EventTable
	Mentions MentionTable

	// SourceCountry maps each source id to its TLD-attributed country index
	// (into gdelt.Countries), or -1 when unattributable. Like
	// Events.Country it is int32, the width the scan kernels index, so both
	// serve as their remap tables directly.
	SourceCountry []int32

	// bySource[s] lists mention rows of source s, ascending by interval.
	// Offsets are int32 like the row ids they index.
	bySourcePtr []int32
	bySourceIdx []int32
	// byEvent[e] is the event-major payload of event row e's mentions,
	// ascending by interval: byEventSrc and byEventIv hold the Source and
	// Interval of each, so per-event folds read contiguous memory instead
	// of gathering from the interval-sorted columns (DESIGN.md §10, 8 B per
	// mention). No kernel needs the mention rows themselves.
	byEventPtr []int32
	byEventSrc []int32
	byEventIv  []int32

	// Bitmap postings (DESIGN.md §12): per-source roaring bitmaps over
	// event rows, derived from the event payload at assembly time.
	// CoReport and FollowReport run on them.
	srcEvBM    []*bitmap.Bitmap
	srcRepEvBM []*bitmap.Bitmap

	// Value bitmaps for qlang predicate pushdown (DESIGN.md §13): mention
	// rows per publisher country (TLD attribution) and per event country;
	// nil where no row carries the key. Quarter and interval clauses need
	// no bitmap: mentions are interval-sorted, so they prune to the
	// binary-searched row range of quarterRow.
	ctryRowBM   []*bitmap.Bitmap
	evCtryRowBM []*bitmap.Bitmap

	// cal is the capture-interval calendar, shared read-only by every store
	// of the same Meta; quarterRow[q] is the first mention row of quarter q
	// (mentions are interval-sorted), with a final sentinel row count.
	cal        *calendar
	quarterRow []int64

	// GKG holds the Global Knowledge Graph annotations, or nil when the
	// dataset was converted without GKG files.
	GKG *GKGStore

	// Report records the defects observed while building (Table II).
	Report *gdelt.ValidationReport

	// version is the snapshot version of the store: 0 for a freshly built
	// database, one more than its predecessor's for every CloneAppend.
	// Result caches key on it, so an append retires every cached answer
	// computed against the old snapshot without TTL guesswork. Accessed
	// only through the atomic Version/SetVersion methods (a plain word,
	// not atomic.Uint64, so shallow DB copies stay legal).
	version uint64
}

// Version returns the store's current snapshot version. Two calls that
// return the same value are guaranteed to have observed identical data, so
// a query result computed at version v may be served for any later request
// that still reads version v.
func (db *DB) Version() uint64 { return atomic.LoadUint64(&db.version) }

// NumQuarters returns the number of calendar quarters covered.
func (db *DB) NumQuarters() int { return db.cal.quarters }

// QuarterLUT returns the capture-interval→quarter lookup table as an int32
// remap column for the typed scan kernels. Read-only; do not mutate.
func (db *DB) QuarterLUT() []int32 { return db.cal.lut }

// QuarterOfInterval maps a capture interval to a quarter index. Intervals
// outside the archive clamp to the nearest quarter.
func (db *DB) QuarterOfInterval(iv int32) int {
	if iv < 0 {
		return 0
	}
	if int(iv) >= len(db.cal.lut) {
		return db.cal.quarters - 1
	}
	return int(db.cal.lut[iv])
}

// QuarterLabel renders quarter q as e.g. "2016Q3".
func (db *DB) QuarterLabel(q int) string {
	y, qq := db.quarterYearQ(q)
	return fmt.Sprintf("%dQ%d", y, qq)
}

func (db *DB) quarterYearQ(q int) (year, quarter int) {
	baseY := db.Meta.Start.Year()
	baseQ := (db.Meta.Start.Month() - 1) / 3
	abs := baseY*4 + baseQ + q
	return abs / 4, abs%4 + 1
}

// QuarterMentionRange returns the half-open mention row range of quarter q.
func (db *DB) QuarterMentionRange(q int) (lo, hi int64) {
	return db.quarterRow[q], db.quarterRow[q+1]
}

// MentionRowRange returns the half-open row range of mentions captured in
// [fromIv, toIv) — contiguous because the mention table is interval-sorted.
// This is how the engine restricts scans to a time window without touching
// rows outside it.
func (db *DB) MentionRowRange(fromIv, toIv int32) (lo, hi int64) {
	n := db.Mentions.Len()
	lo = int64(sort.Search(n, func(i int) bool { return db.Mentions.Interval[i] >= fromIv }))
	hi = int64(sort.Search(n, func(i int) bool { return db.Mentions.Interval[i] >= toIv }))
	return lo, hi
}

// SourceMentions returns the mention rows of source s, ascending by
// interval, and none for an id past the dictionary: in a part of a sharded
// world, a source of the world's that the part has not seen.
func (db *DB) SourceMentions(s int32) []int32 {
	if int(s)+1 >= len(db.bySourcePtr) {
		return nil
	}
	return db.bySourceIdx[db.bySourcePtr[s]:db.bySourcePtr[s+1]]
}

// EventMentionSources returns the source ids of event row e's mentions in
// mention-row order, hence ascending by interval. Read-only.
func (db *DB) EventMentionSources(e int32) []int32 {
	return db.byEventSrc[db.byEventPtr[e]:db.byEventPtr[e+1]]
}

// EventMentionIntervals returns the capture intervals of event row e's
// mentions, aligned with EventMentionSources(e) and therefore ascending.
// Read-only.
func (db *DB) EventMentionIntervals(e int32) []int32 {
	return db.byEventIv[db.byEventPtr[e]:db.byEventPtr[e+1]]
}

// EventRowByID returns the event row for a GlobalEventID, or -1.
func (db *DB) EventRowByID(id int64) int32 {
	i := sort.Search(len(db.Events.ID), func(i int) bool { return db.Events.ID[i] >= id })
	if i < len(db.Events.ID) && db.Events.ID[i] == id {
		return int32(i)
	}
	return -1
}

// AssembleDB builds a DB from fully-populated, already-sorted tables: the
// binary-format loader deserializes columns and hands them here so the
// derived structures (postings, quarter index, source countries) are rebuilt
// rather than stored. The tables are validated before use.
func AssembleDB(meta Meta, sources *Dictionary, ev EventTable, mn MentionTable, report *gdelt.ValidationReport) (*DB, error) {
	if report == nil {
		report = &gdelt.ValidationReport{}
	}
	db := &DB{Meta: meta, Sources: sources, Events: ev, Mentions: mn, Report: report}
	if meta.Intervals <= 0 {
		return nil, fmt.Errorf("store: assembling db with %d intervals", meta.Intervals)
	}
	// Table invariants must hold BEFORE the derived indexes are built: the
	// counting sorts in buildPostings index by Source and EventRow, so a
	// corrupted binary load with out-of-range references must be rejected
	// here rather than panic there.
	if err := db.validateTables(); err != nil {
		return nil, err
	}
	db.buildDerived(nil)
	if err := db.Validate(); err != nil {
		return nil, err
	}
	return db, nil
}

// validateTables checks the invariants of the raw column tables alone —
// everything that must hold before derived indexes can be built safely.
func (db *DB) validateTables() error {
	ne, nm := db.Events.Len(), db.Mentions.Len()
	if len(db.Events.Interval) != ne ||
		len(db.Events.Country) != ne || len(db.Events.NumArticles) != ne ||
		len(db.Events.FirstMention) != ne || len(db.Events.SourceURL) != ne {
		return fmt.Errorf("store: event column lengths disagree")
	}
	if len(db.Mentions.Source) != nm || len(db.Mentions.Interval) != nm ||
		len(db.Mentions.Delay) != nm || len(db.Mentions.DocLen) != nm ||
		len(db.Mentions.Tone) != nm || len(db.Mentions.Confidence) != nm {
		return fmt.Errorf("store: mention column lengths disagree")
	}
	for i := 1; i < ne; i++ {
		if db.Events.ID[i] <= db.Events.ID[i-1] {
			return fmt.Errorf("store: event ids not strictly increasing at row %d", i)
		}
	}
	prev := int32(-1)
	for i := 0; i < nm; i++ {
		if db.Mentions.Interval[i] < prev {
			return fmt.Errorf("store: mentions not interval-sorted at row %d", i)
		}
		prev = db.Mentions.Interval[i]
		if e := db.Mentions.EventRow[i]; e < 0 || int(e) >= ne {
			return fmt.Errorf("store: mention %d references event row %d of %d", i, e, ne)
		}
		if s := db.Mentions.Source[i]; s < 0 || int(s) >= db.Sources.Len() {
			return fmt.Errorf("store: mention %d references source %d of %d", i, s, db.Sources.Len())
		}
	}
	return nil
}

// Validate checks internal invariants; it is used by tests and after binary
// loads. It is O(rows).
func (db *DB) Validate() error {
	if err := db.validateTables(); err != nil {
		return err
	}
	nm := db.Mentions.Len()
	ne := db.Events.Len()
	if len(db.SourceCountry) != db.Sources.Len() {
		return fmt.Errorf("store: source country column length %d != %d", len(db.SourceCountry), db.Sources.Len())
	}
	if got := db.bySourcePtr[db.Sources.Len()]; int(got) != nm {
		return fmt.Errorf("store: source postings cover %d of %d mentions", got, nm)
	}
	if got := db.byEventPtr[ne]; int(got) != nm {
		return fmt.Errorf("store: event postings cover %d of %d mentions", got, nm)
	}
	if q := db.cal.quarters; db.quarterRow[q] != int64(nm) {
		return fmt.Errorf("store: quarter index covers %d of %d mentions", db.quarterRow[q], nm)
	}
	return nil
}
