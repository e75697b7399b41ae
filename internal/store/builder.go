package store

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"gdeltmine/internal/gdelt"
)

// Builder accumulates raw event and mention records and assembles the
// immutable DB. It performs the cleaning, indexing and validation work of
// the paper's preprocessing tool.
type Builder struct {
	meta Meta
	base int64 // global interval index of capture interval 0

	sources *Dictionary
	report  *gdelt.ValidationReport

	// Event staging, keyed later by GlobalEventID.
	evID    []int64
	evDay   []int32
	evCtry  []int32
	evURL   []string
	evAdded []gdelt.Timestamp

	// Mention staging.
	mnEventID  []int64
	mnSource   []int32
	mnEvIv     []int64 // event capture interval (global offset, may precede archive)
	mnIv       []int32 // mention capture interval (archive-relative)
	mnDocLen   []int32
	mnTone     []float32
	mnConf     []int8
	duplicates int64
	dangling   int64
	dropped    int64

	gkg        *gkgStaging
	gkgReserve int // GKG rows the staging is sized for when the first arrives
}

// BuildStats reports what the builder ingested and discarded.
type BuildStats struct {
	// DuplicateEvents counts event rows whose GlobalEventID was already
	// seen; the first record wins.
	DuplicateEvents int64
	// DanglingMentions counts mentions referencing an unknown event
	// (typically caused by missing-archive chunks) that were dropped.
	DanglingMentions int64
	// DroppedMentions counts non-web mentions and mentions with
	// out-of-range capture times that were dropped.
	DroppedMentions int64
}

// NewBuilder returns a builder for an archive starting at start and
// covering intervals capture intervals.
func NewBuilder(start gdelt.Timestamp, intervals int32) (*Builder, error) {
	if !start.Valid() {
		return nil, fmt.Errorf("store: invalid archive start %v", start)
	}
	if intervals <= 0 {
		return nil, fmt.Errorf("store: archive needs a positive interval count")
	}
	return &Builder{
		meta:    Meta{Start: start, Intervals: intervals},
		base:    start.IntervalIndex(),
		sources: NewDictionary(),
		report:  &gdelt.ValidationReport{},
	}, nil
}

// Report exposes the validation report being assembled; callers may record
// master-list and archive-level defects into it before Finish.
func (b *Builder) Report() *gdelt.ValidationReport { return b.report }

// Reserve sizes the staging for the given numbers of event, mention and GKG
// rows still to be added, so a caller that knows its counts pays no slice
// growth. It is a capacity hint only: adding more or fewer rows is still
// correct, and the built store is the same either way.
func (b *Builder) Reserve(events, mentions, gkg int) {
	b.evID = slices.Grow(b.evID, events)
	b.evDay = slices.Grow(b.evDay, events)
	b.evCtry = slices.Grow(b.evCtry, events)
	b.evURL = slices.Grow(b.evURL, events)
	b.evAdded = slices.Grow(b.evAdded, events)
	b.mnEventID = slices.Grow(b.mnEventID, mentions)
	b.mnSource = slices.Grow(b.mnSource, mentions)
	b.mnEvIv = slices.Grow(b.mnEvIv, mentions)
	b.mnIv = slices.Grow(b.mnIv, mentions)
	b.mnDocLen = slices.Grow(b.mnDocLen, mentions)
	b.mnTone = slices.Grow(b.mnTone, mentions)
	b.mnConf = slices.Grow(b.mnConf, mentions)
	if b.gkg != nil {
		b.gkg.reserve(gkg)
	} else {
		b.gkgReserve = gkg
	}
}

// AddEvent stages one parsed event row.
func (b *Builder) AddEvent(ev *gdelt.Event) {
	b.evID = append(b.evID, ev.GlobalEventID)
	b.evDay = append(b.evDay, ev.Day)
	b.evCtry = append(b.evCtry, int32(gdelt.CountryIndex(ev.ActionCountry)))
	b.evURL = append(b.evURL, ev.SourceURL)
	b.evAdded = append(b.evAdded, ev.DateAdded)
}

// AddMention stages one parsed mention row. Non-web mentions and mentions
// captured outside the archive span are dropped and counted.
func (b *Builder) AddMention(mn *gdelt.Mention) {
	if mn.MentionType != gdelt.MentionTypeWeb {
		b.dropped++
		return
	}
	iv := mn.MentionTime.IntervalIndex() - b.base
	if iv < 0 || iv >= int64(b.meta.Intervals) {
		b.dropped++
		b.report.Record(gdelt.DefectBadRow,
			fmt.Sprintf("mention of event %d at %v outside archive", mn.GlobalEventID, mn.MentionTime))
		return
	}
	b.mnEventID = append(b.mnEventID, mn.GlobalEventID)
	b.mnSource = append(b.mnSource, b.sources.Intern(mn.SourceName))
	b.mnEvIv = append(b.mnEvIv, mn.EventTime.IntervalIndex()-b.base)
	b.mnIv = append(b.mnIv, int32(iv))
	b.mnDocLen = append(b.mnDocLen, mn.DocLen)
	b.mnTone = append(b.mnTone, mn.DocTone)
	b.mnConf = append(b.mnConf, mn.Confidence)
}

// Finish assembles the immutable DB: deduplicates and sorts events, drops
// dangling mentions, sorts mentions by capture interval, recounts per-event
// articles, computes delays, validates (Table II), and builds the postings
// and quarter indexes.
func (b *Builder) Finish() (*DB, BuildStats, error) {
	db := &DB{Meta: b.meta, Sources: b.sources, Report: b.report}

	// Deduplicate and sort events by id. Duplicate ids sort adjacent, and
	// the first of each run wins.
	order := make([]int32, len(b.evID))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, c int) bool { return b.evID[order[a]] < b.evID[order[c]] })
	uniq := order[:0]
	for _, o := range order {
		if n := len(uniq); n > 0 && b.evID[uniq[n-1]] == b.evID[o] {
			b.duplicates++
			continue
		}
		uniq = append(uniq, o)
	}
	db.Events = MakeEventTable(len(uniq))
	rowOf := make(map[int64]int32, len(uniq))
	for _, o := range uniq {
		id := b.evID[o]
		rowOf[id] = int32(db.Events.Len())
		db.Events.ID = append(db.Events.ID, id)
		db.Events.Country = append(db.Events.Country, b.evCtry[o])
		db.Events.SourceURL = append(db.Events.SourceURL, b.evURL[o])
		// Event interval provisional from DateAdded; refined from mention
		// EventTimeDate below (DateAdded is the first capture).
		iv := b.evAdded[o].IntervalIndex() - b.base
		db.Events.Interval = append(db.Events.Interval, clampInterval(iv, b.meta.Intervals))
		db.Events.NumArticles = append(db.Events.NumArticles, 0)
		db.Events.FirstMention = append(db.Events.FirstMention, -1)
	}
	ne := db.Events.Len()

	// Sort mention staging rows by capture interval (stable on input order)
	// and resolve their event rows first (-1: dangling), so the columns are
	// sized to the mentions kept.
	morder := make([]int32, len(b.mnIv))
	for i := range morder {
		morder[i] = int32(i)
	}
	sort.SliceStable(morder, func(a, c int) bool { return b.mnIv[morder[a]] < b.mnIv[morder[c]] })
	evRow := make([]int32, len(morder))
	for i, o := range morder {
		row, ok := rowOf[b.mnEventID[o]]
		if !ok {
			row = -1
			b.dangling++
		}
		evRow[i] = row
	}
	db.Mentions = MakeMentionTable(len(morder) - int(b.dangling))
	firstMentionTS := make([]gdelt.Timestamp, ne)

	for i, o := range morder {
		row := evRow[i]
		if row < 0 {
			continue
		}
		evIv := b.mnEvIv[o]
		mnIv := b.mnIv[o]
		delay := int64(mnIv) - evIv + 1
		if delay < 0 {
			delay = 0
		}
		if delay > int64(gdelt.IntervalsPerYear+gdelt.IntervalsPerDay) {
			delay = int64(gdelt.IntervalsPerYear + gdelt.IntervalsPerDay)
		}
		db.Mentions.EventRow = append(db.Mentions.EventRow, row)
		db.Mentions.Source = append(db.Mentions.Source, b.mnSource[o])
		db.Mentions.Interval = append(db.Mentions.Interval, mnIv)
		db.Mentions.Delay = append(db.Mentions.Delay, int32(delay))
		db.Mentions.DocLen = append(db.Mentions.DocLen, b.mnDocLen[o])
		db.Mentions.Tone = append(db.Mentions.Tone, b.mnTone[o])
		db.Mentions.Confidence = append(db.Mentions.Confidence, b.mnConf[o])

		db.Events.NumArticles[row]++
		if db.Events.FirstMention[row] < 0 {
			db.Events.FirstMention[row] = mnIv
			firstMentionTS[row] = gdelt.IntervalStart(b.base + int64(mnIv))
			// Refine the event interval from the mention's EventTimeDate.
			db.Events.Interval[row] = clampInterval(evIv, b.meta.Intervals)
		}
	}

	// Per-event validation (missing URL, future event date). The recorded
	// day comes from staging: no query reads it, so the store keeps none.
	for i, o := range uniq {
		ev := gdelt.Event{
			GlobalEventID: db.Events.ID[i],
			Day:           b.evDay[o],
			SourceURL:     db.Events.SourceURL[i],
		}
		gdelt.ValidateEvent(b.report, &ev, firstMentionTS[i])
		if db.Events.FirstMention[i] < 0 {
			db.Events.FirstMention[i] = db.Events.Interval[i]
		}
	}

	db.buildDerived(nil)
	if err := b.finishGKG(db); err != nil {
		return nil, BuildStats{}, err
	}

	stats := BuildStats{DuplicateEvents: b.duplicates, DanglingMentions: b.dangling, DroppedMentions: b.dropped}
	if err := db.Validate(); err != nil {
		return nil, stats, err
	}
	return db, stats, nil
}

func clampInterval(iv int64, n int32) int32 {
	if iv < 0 {
		return 0
	}
	if iv >= int64(n) {
		return n - 1
	}
	return int32(iv)
}

// buildDerived (re)builds every derived index the query layers read from
// the tables: source countries, row-list postings, the source and value
// bitmaps (so the bitmap postings can never be stale relative to the
// tables) and the quarter index. It is the single rebuild chain of
// assembly, batch build and appends.
//
// prev is nil, or the store CloneAppend cloned db from: db then holds
// prev's mention rows — event rows renumbered past inserted events — and
// prev's sources, each followed by new ones. A keyed index is rebuilt only
// where the append changed its inputs and shared with prev elsewhere (the
// dirty-key rule, DESIGN.md §15); nil prev makes every key dirty. The CSR
// postings and their event-major payload are rebuilt whole, O(rows).
func (db *DB) buildDerived(prev *DB) {
	// First appended mention row, first new source, first event row an
	// insert moved: an insert shifts every row above it, and a row below
	// the first insert keeps its ID, so the ID columns part at that row.
	newRow, newSrc, movedEv := 0, 0, 0
	if prev != nil {
		newRow, newSrc = prev.Mentions.Len(), prev.Sources.Len()
		movedEv = sort.Search(prev.Events.Len(), func(r int) bool { return db.Events.ID[r] != prev.Events.ID[r] })
	}
	db.buildSourceCountries(prev)
	db.buildPostings()
	db.buildSourceBitmaps(prev, newRow, newSrc, movedEv)
	db.buildValueBitmaps(prev, newRow)
	db.buildQuarterIndex(prev)
}

// extend returns prev followed by f(i) for i in [len(prev), n): prev itself
// when nothing is added, else a fresh slice — never prev's array, which a
// published store owns.
func extend[T any](prev []T, n int, f func(i int) T) []T {
	if len(prev) == n {
		return prev
	}
	out := make([]T, n)
	copy(out, prev)
	for i := len(prev); i < n; i++ {
		out[i] = f(i)
	}
	return out
}

// buildSourceCountries attributes each source to a country by its domain;
// prev's sources keep their attribution.
func (db *DB) buildSourceCountries(prev *DB) {
	var sc []int32
	if prev != nil {
		sc = prev.SourceCountry
	}
	db.SourceCountry = extend(sc, db.Sources.Len(), func(s int) int32 {
		return int32(gdelt.CountryFromDomain(db.Sources.Name(int32(s))))
	})
}

// buildPostings builds the by-source mention rows and the by-event payload
// with two counting sorts over the interval-sorted mention table, so every
// posting list is ascending by interval. The by-event sort writes each
// mention's Source and Interval, not its row: no kernel reads the row.
func (db *DB) buildPostings() {
	nm := db.Mentions.Len()
	ns := db.Sources.Len()
	ne := db.Events.Len()

	db.bySourcePtr = make([]int32, ns+1)
	for _, s := range db.Mentions.Source {
		db.bySourcePtr[s+1]++
	}
	for s := 0; s < ns; s++ {
		db.bySourcePtr[s+1] += db.bySourcePtr[s]
	}
	db.bySourceIdx = make([]int32, nm)
	cur := make([]int32, ns)
	for i := 0; i < nm; i++ {
		s := db.Mentions.Source[i]
		db.bySourceIdx[db.bySourcePtr[s]+cur[s]] = int32(i)
		cur[s]++
	}

	db.byEventPtr = make([]int32, ne+1)
	for _, e := range db.Mentions.EventRow {
		db.byEventPtr[e+1]++
	}
	for e := 0; e < ne; e++ {
		db.byEventPtr[e+1] += db.byEventPtr[e]
	}
	db.byEventSrc = make([]int32, nm)
	db.byEventIv = make([]int32, nm)
	ecur := make([]int32, ne)
	for i := 0; i < nm; i++ {
		e := db.Mentions.EventRow[i]
		j := db.byEventPtr[e] + ecur[e]
		db.byEventSrc[j] = db.Mentions.Source[i]
		db.byEventIv[j] = db.Mentions.Interval[i]
		ecur[e]++
	}
}

// calendar maps every capture interval of an archive to its calendar
// quarter, as the kernels' int32 LUT. It depends on Meta alone and is
// O(archive span), not O(rows), so stores share one read-only instance:
// an append-log clone its original's, and every other assembly — batch
// build, part loads, a split's or seal's slices — the last one built, while
// the Meta matches.
type calendar struct {
	meta     Meta
	lut      []int32 // capture interval -> quarter index
	quarters int
}

var lastCalendar atomic.Pointer[calendar]

func calendarOf(m Meta) *calendar {
	if c := lastCalendar.Load(); c != nil && c.meta == m {
		return c
	}
	n := int(m.Intervals)
	c := &calendar{meta: m, lut: make([]int32, n)}
	baseAbs := m.Start.Year()*4 + (m.Start.Month()-1)/3
	// Walk day by day; all 96 intervals of a day share a quarter.
	t := m.Start.Time()
	for iv, day := 0, 0; iv < n; iv, day = iv+gdelt.IntervalsPerDay, day+1 {
		dt := t.AddDate(0, 0, day)
		q := int32(dt.Year()*4 + (int(dt.Month())-1)/3 - baseAbs)
		for k := iv; k < iv+gdelt.IntervalsPerDay && k < n; k++ {
			c.lut[k] = q
		}
	}
	c.quarters = int(c.lut[n-1]) + 1
	lastCalendar.Store(c)
	return c
}

// buildQuarterIndex records the first mention row of each calendar quarter
// over the calendar, sharing prev's calendar when there is one.
func (db *DB) buildQuarterIndex(prev *DB) {
	if prev != nil {
		db.cal = prev.cal
	} else {
		db.cal = calendarOf(db.Meta)
	}
	nq, nm := db.cal.quarters, db.Mentions.Len()
	db.quarterRow = make([]int64, nq+1)
	for q := 1; q <= nq; q++ {
		// First mention row whose quarter >= q.
		db.quarterRow[q] = int64(sort.Search(nm, func(i int) bool {
			return int(db.cal.lut[db.Mentions.Interval[i]]) >= q
		}))
	}
}
