package store

import (
	"slices"
	"testing"

	"gdeltmine/internal/gdelt"
)

func TestDictionary(t *testing.T) {
	d := NewDictionary()
	a := d.Intern("alpha")
	b := d.Intern("beta")
	if a != 0 || b != 1 {
		t.Fatalf("ids %d %d", a, b)
	}
	if d.Intern("alpha") != a {
		t.Fatal("re-intern changed id")
	}
	if d.Lookup("beta") != b || d.Lookup("gamma") != -1 {
		t.Fatal("lookup wrong")
	}
	if d.Name(a) != "alpha" || d.Len() != 2 {
		t.Fatal("name/len wrong")
	}
}

func TestDictionaryNamePanics(t *testing.T) {
	d := NewDictionary()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Name(0)
}

func TestFromNames(t *testing.T) {
	d, err := FromNames([]string{"x", "y"})
	if err != nil {
		t.Fatal(err)
	}
	if d.Lookup("y") != 1 {
		t.Fatal("rebuilt lookup wrong")
	}
	if _, err := FromNames([]string{"x", "x"}); err == nil {
		t.Fatal("duplicate names should fail")
	}
}

func TestNewBuilderValidation(t *testing.T) {
	if _, err := NewBuilder(0, 10); err == nil {
		t.Fatal("invalid start should fail")
	}
	if _, err := NewBuilder(20150218000000, 0); err == nil {
		t.Fatal("zero intervals should fail")
	}
}

// buildTinyDB assembles a hand-crafted store with two sources, three events
// and five mentions for white-box assertions.
func buildTinyDB(t *testing.T) (*DB, BuildStats) {
	t.Helper()
	b, err := NewBuilder(20150218000000, 96*400) // 400 days
	if err != nil {
		t.Fatal(err)
	}
	mkTS := func(iv int64) gdelt.Timestamp { return gdelt.IntervalStart(iv) }

	events := []gdelt.Event{
		{GlobalEventID: 10, Day: 20150218, ActionCountry: "US", SourceURL: "https://a.com/1", DateAdded: mkTS(0)},
		{GlobalEventID: 20, Day: 20150228, ActionCountry: "UK", SourceURL: "", DateAdded: mkTS(1000)},
		{GlobalEventID: 30, Day: 20150401, ActionCountry: "", SourceURL: "https://b.co.uk/3", DateAdded: mkTS(4000)},
		{GlobalEventID: 20, Day: 20150228, ActionCountry: "UK", SourceURL: "dup", DateAdded: mkTS(1000)}, // duplicate
	}
	for i := range events {
		b.AddEvent(&events[i])
	}
	mentions := []gdelt.Mention{
		{GlobalEventID: 10, EventTime: mkTS(0), MentionTime: mkTS(0), MentionType: 1, SourceName: "a.com", DocLen: 100},
		{GlobalEventID: 10, EventTime: mkTS(0), MentionTime: mkTS(16), MentionType: 1, SourceName: "b.co.uk", DocLen: 200},
		{GlobalEventID: 20, EventTime: mkTS(1000), MentionTime: mkTS(1096), MentionType: 1, SourceName: "a.com", DocLen: 300},
		{GlobalEventID: 20, EventTime: mkTS(1000), MentionTime: mkTS(1000), MentionType: 1, SourceName: "b.co.uk", DocLen: 400},
		{GlobalEventID: 30, EventTime: mkTS(4000), MentionTime: mkTS(4001), MentionType: 1, SourceName: "a.com", DocLen: 500},
		{GlobalEventID: 99, EventTime: mkTS(0), MentionTime: mkTS(5), MentionType: 1, SourceName: "a.com"},                     // dangling
		{GlobalEventID: 10, EventTime: mkTS(0), MentionTime: mkTS(5), MentionType: 2, SourceName: "tv"},                        // non-web
		{GlobalEventID: 10, EventTime: mkTS(0), MentionTime: mkTS(96 * 500), MentionType: 1, SourceName: "x"},                  // beyond end
		{GlobalEventID: 10, EventTime: mkTS(0), MentionTime: gdelt.Timestamp(20150217000000), MentionType: 1, SourceName: "x"}, // before start
	}
	for i := range mentions {
		b.AddMention(&mentions[i])
	}
	db, stats, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return db, stats
}

func TestBuilderAssemblesTables(t *testing.T) {
	db, stats := buildTinyDB(t)
	if db.Events.Len() != 3 {
		t.Fatalf("events %d", db.Events.Len())
	}
	if db.Mentions.Len() != 5 {
		t.Fatalf("mentions %d", db.Mentions.Len())
	}
	if stats.DuplicateEvents != 1 || stats.DanglingMentions != 1 || stats.DroppedMentions != 3 {
		t.Fatalf("stats %+v", stats)
	}
	// Events sorted by id.
	if db.Events.ID[0] != 10 || db.Events.ID[1] != 20 || db.Events.ID[2] != 30 {
		t.Fatalf("event order %v", db.Events.ID)
	}
	// Duplicate kept the first record.
	if db.Events.SourceURL[1] != "" {
		t.Fatalf("duplicate resolution kept %q", db.Events.SourceURL[1])
	}
	// Article recount.
	if db.Events.NumArticles[0] != 2 || db.Events.NumArticles[1] != 2 || db.Events.NumArticles[2] != 1 {
		t.Fatalf("article counts %v", db.Events.NumArticles)
	}
	// First mentions.
	if db.Events.FirstMention[0] != 0 || db.Events.FirstMention[1] != 1000 || db.Events.FirstMention[2] != 4001 {
		t.Fatalf("first mentions %v", db.Events.FirstMention)
	}
}

func TestBuilderDelays(t *testing.T) {
	db, _ := buildTinyDB(t)
	// Mentions sorted by interval: rows are (ev10,a,0), (ev10,b,16),
	// (ev20,b,1000), (ev20,a,1096), (ev30,a,4001).
	wantDelays := []int32{1, 17, 1, 97, 2}
	for i, want := range wantDelays {
		if db.Mentions.Delay[i] != want {
			t.Fatalf("delay[%d] = %d want %d (intervals %v)", i, db.Mentions.Delay[i], want, db.Mentions.Interval)
		}
	}
}

func TestBuilderValidationReport(t *testing.T) {
	db, _ := buildTinyDB(t)
	r := db.Report
	if r.Counts[gdelt.DefectMissingSourceURL] != 1 {
		t.Fatalf("missing url count %d", r.Counts[gdelt.DefectMissingSourceURL])
	}
	// Event 30 recorded day 20150401 but first mention at interval 4001
	// (March 31) -> future-date defect.
	if r.Counts[gdelt.DefectFutureEventDate] != 1 {
		t.Fatalf("future date count %d (report: %v)", r.Counts[gdelt.DefectFutureEventDate], r.Counts)
	}
	// Out-of-range mentions were recorded as bad rows.
	if r.Counts[gdelt.DefectBadRow] != 2 {
		t.Fatalf("bad rows %d", r.Counts[gdelt.DefectBadRow])
	}
}

func TestPostings(t *testing.T) {
	db, _ := buildTinyDB(t)
	a := db.Sources.Lookup("a.com")
	bsrc := db.Sources.Lookup("b.co.uk")
	if a < 0 || bsrc < 0 {
		t.Fatal("sources not interned")
	}
	am := db.SourceMentions(a)
	if len(am) != 3 {
		t.Fatalf("a.com mentions %v", am)
	}
	// Ascending by interval.
	for i := 1; i < len(am); i++ {
		if db.Mentions.Interval[am[i]] < db.Mentions.Interval[am[i-1]] {
			t.Fatal("source postings not interval-sorted")
		}
	}
	if got := len(db.SourceMentions(bsrc)); got != 2 {
		t.Fatalf("b.co.uk mentions %d", got)
	}
	// Event 10's payload is its mentions in row order: (a, 0), (b, 16).
	if srcs, ivs := db.EventMentionSources(0), db.EventMentionIntervals(0); !slices.Equal(srcs, []int32{a, bsrc}) ||
		!slices.Equal(ivs, []int32{0, 16}) {
		t.Fatalf("event 10 payload sources %v intervals %v", srcs, ivs)
	}
	if got := len(db.EventMentionSources(2)); got != 1 {
		t.Fatalf("event 30 mentions %d", got)
	}
}

func TestSourceCountries(t *testing.T) {
	db, _ := buildTinyDB(t)
	a := db.Sources.Lookup("a.com")
	bsrc := db.Sources.Lookup("b.co.uk")
	if got := db.SourceCountry[a]; got != int32(gdelt.CountryIndex("US")) {
		t.Fatalf("a.com country %d", got)
	}
	if got := db.SourceCountry[bsrc]; got != int32(gdelt.CountryIndex("UK")) {
		t.Fatalf("b.co.uk country %d", got)
	}
}

func TestEventRowByID(t *testing.T) {
	db, _ := buildTinyDB(t)
	if db.EventRowByID(20) != 1 {
		t.Fatal("lookup 20")
	}
	if db.EventRowByID(15) != -1 || db.EventRowByID(999) != -1 {
		t.Fatal("missing ids should return -1")
	}
}

func TestQuarterIndex(t *testing.T) {
	db, _ := buildTinyDB(t)
	// 400 days from 18 Feb 2015: 2015Q1..2016Q1 = 5 quarters.
	if db.NumQuarters() != 5 {
		t.Fatalf("quarters %d", db.NumQuarters())
	}
	if db.QuarterOfInterval(0) != 0 {
		t.Fatal("first interval quarter")
	}
	// 1 April 2015 is 42 days after start: interval 42*96.
	if got := db.QuarterOfInterval(42 * 96); got != 1 {
		t.Fatalf("april quarter %d", got)
	}
	if db.QuarterLabel(0) != "2015Q1" || db.QuarterLabel(4) != "2016Q1" {
		t.Fatalf("labels %s %s", db.QuarterLabel(0), db.QuarterLabel(4))
	}
	// Clamping.
	if db.QuarterOfInterval(-5) != 0 || db.QuarterOfInterval(1<<30) != 4 {
		t.Fatal("clamping broken")
	}
	// Quarter row ranges partition the mention table.
	var total int64
	for q := 0; q < db.NumQuarters(); q++ {
		lo, hi := db.QuarterMentionRange(q)
		if hi < lo {
			t.Fatalf("quarter %d range [%d,%d)", q, lo, hi)
		}
		for r := lo; r < hi; r++ {
			if db.QuarterOfInterval(db.Mentions.Interval[r]) != q {
				t.Fatalf("mention %d in wrong quarter bucket", r)
			}
		}
		total += hi - lo
	}
	if total != int64(db.Mentions.Len()) {
		t.Fatalf("quarter ranges cover %d of %d", total, db.Mentions.Len())
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	db, _ := buildTinyDB(t)
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	saved := db.Mentions.EventRow[0]
	db.Mentions.EventRow[0] = 99
	if err := db.Validate(); err == nil {
		t.Fatal("bad event row not caught")
	}
	db.Mentions.EventRow[0] = saved
	db.Events.ID[1] = db.Events.ID[0]
	if err := db.Validate(); err == nil {
		t.Fatal("unsorted ids not caught")
	}
}
