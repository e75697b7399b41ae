package shard

import (
	"fmt"
	"sort"

	"gdeltmine/internal/store"
)

// Single wraps a loaded monolithic store as a K=1 world: db itself is the
// one part (no Split copy of its mention, GKG or index columns) and its own
// dictionaries are the global ones, so the remaps are identities. It is how
// a server or test runs a monolith through the sharded execution path.
func Single(db *store.DB) (*DB, error) {
	var themes *store.Dictionary
	if db.GKG != nil {
		themes = db.GKG.Themes
	}
	return New([]*store.DB{db}, []int32{0, db.Meta.Intervals}, db.Sources, themes, db.Report)
}

// Split re-slices a loaded monolithic store into k equal time-range shards
// (k is clamped to the interval count). The global dictionaries are the
// monolith's own, so global ids — and therefore every id-order tie-break in
// top-k selections — are identical to the monolithic execution.
func Split(db *store.DB, k int) (*DB, error) {
	if k < 1 {
		return nil, fmt.Errorf("shard: split into %d shards", k)
	}
	iv := int(db.Meta.Intervals)
	if k > iv {
		k = iv
	}
	bounds := make([]int32, k+1)
	for i := 0; i <= k; i++ {
		bounds[i] = int32(i * iv / k)
	}
	return SplitAt(db, bounds)
}

// SplitAt re-slices a monolith on explicit capture-interval boundaries.
// bounds must tile [0, Intervals]; the metamorphic battery uses it to prove
// results are invariant under boundary moves.
func SplitAt(db *store.DB, bounds []int32) (*DB, error) {
	if len(bounds) < 2 {
		return nil, fmt.Errorf("shard: %d bounds", len(bounds))
	}
	parts := make([]*store.DB, len(bounds)-1)
	for i := range parts {
		p, err := slice(db, bounds[i], bounds[i+1])
		if err != nil {
			return nil, fmt.Errorf("shard %d [%d, %d): %w", i, bounds[i], bounds[i+1], err)
		}
		parts[i] = p
	}
	var themes *store.Dictionary
	if db.GKG != nil {
		themes = db.GKG.Themes
	}
	return New(parts, bounds, db.Sources, themes, db.Report)
}

// slice builds one shard: the monolith's mentions captured in [lo, hi)
// plus the events they reference and the events homed in the range (so the
// union of shard event tables covers every event, including zero-mention
// ones), all re-encoded against shard-local dictionaries. Per-event
// metadata is copied verbatim — it stays global on purpose, so queries
// reading it (event sizes, qlang's articles field, wildfire thresholds)
// agree with the monolith without cross-shard recounting.
func slice(db *store.DB, lo, hi int32) (*store.DB, error) {
	rLo, rHi := db.MentionRowRange(lo, hi)

	ne := db.Events.Len()
	include := make([]bool, ne)
	for ev := 0; ev < ne; ev++ {
		iv := db.Events.Interval[ev]
		if iv < 0 {
			iv = 0
		}
		if iv >= db.Meta.Intervals {
			iv = db.Meta.Intervals - 1
		}
		if iv >= lo && iv < hi {
			include[ev] = true
		}
	}
	for r := rLo; r < rHi; r++ {
		include[db.Mentions.EventRow[r]] = true
	}

	g2l := make([]int32, ne)
	var ev store.EventTable
	for e := 0; e < ne; e++ {
		g2l[e] = -1
		if !include[e] {
			continue
		}
		g2l[e] = int32(ev.Len())
		ev.ID = append(ev.ID, db.Events.ID[e])
		ev.Day = append(ev.Day, db.Events.Day[e])
		ev.Interval = append(ev.Interval, db.Events.Interval[e])
		ev.Country = append(ev.Country, db.Events.Country[e])
		ev.NumArticles = append(ev.NumArticles, db.Events.NumArticles[e])
		ev.FirstMention = append(ev.FirstMention, db.Events.FirstMention[e])
		ev.SourceURL = append(ev.SourceURL, db.Events.SourceURL[e])
	}

	// Intern every source the shard will reference — mention rows and GKG
	// rows — before assembly, because AssembleDB sizes the postings and the
	// source-country column by the dictionary length.
	ldict := store.NewDictionary()
	for r := rLo; r < rHi; r++ {
		ldict.Intern(db.Sources.Name(db.Mentions.Source[r]))
	}
	gLo, gHi := 0, 0
	if db.GKG != nil {
		t := &db.GKG.Table
		n := t.Len()
		gLo = sort.Search(n, func(i int) bool { return t.Interval[i] >= lo })
		gHi = sort.Search(n, func(i int) bool { return t.Interval[i] >= hi })
		for r := gLo; r < gHi; r++ {
			ldict.Intern(db.Sources.Name(t.Source[r]))
		}
	}

	var mn store.MentionTable
	for r := rLo; r < rHi; r++ {
		mn.EventRow = append(mn.EventRow, g2l[db.Mentions.EventRow[r]])
		mn.Source = append(mn.Source, ldict.Intern(db.Sources.Name(db.Mentions.Source[r])))
		mn.Interval = append(mn.Interval, db.Mentions.Interval[r])
		mn.Delay = append(mn.Delay, db.Mentions.Delay[r])
		mn.DocLen = append(mn.DocLen, db.Mentions.DocLen[r])
		mn.Tone = append(mn.Tone, db.Mentions.Tone[r])
		mn.Confidence = append(mn.Confidence, db.Mentions.Confidence[r])
	}

	p, err := store.AssembleDB(db.Meta, ldict, ev, mn, db.Report)
	if err != nil {
		return nil, err
	}
	if db.GKG != nil {
		if err := sliceGKG(db, p, ldict, gLo, gHi); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// sliceGKG carves the (interval-sorted, hence contiguous) GKG row range
// [gLo, gHi) into shard-local tables with local theme/person/org
// dictionaries interned in row order.
func sliceGKG(db *store.DB, p *store.DB, ldict *store.Dictionary, gLo, gHi int) error {
	src := &db.GKG.Table
	themes := store.NewDictionary()
	persons := store.NewDictionary()
	orgs := store.NewDictionary()
	var t store.GKGTable
	t.ThemePtr = append(t.ThemePtr, 0)
	t.PersonPtr = append(t.PersonPtr, 0)
	t.OrgPtr = append(t.OrgPtr, 0)
	for r := gLo; r < gHi; r++ {
		t.Source = append(t.Source, ldict.Intern(db.Sources.Name(src.Source[r])))
		t.Interval = append(t.Interval, src.Interval[r])
		t.Tone = append(t.Tone, src.Tone[r])
		t.Translated = append(t.Translated, src.Translated[r])
		for _, id := range src.RowThemes(r) {
			t.ThemeIDs = append(t.ThemeIDs, themes.Intern(db.GKG.Themes.Name(id)))
		}
		t.ThemePtr = append(t.ThemePtr, int64(len(t.ThemeIDs)))
		for _, id := range src.RowPersons(r) {
			t.PersonIDs = append(t.PersonIDs, persons.Intern(db.GKG.Persons.Name(id)))
		}
		t.PersonPtr = append(t.PersonPtr, int64(len(t.PersonIDs)))
		for _, id := range src.RowOrgs(r) {
			t.OrgIDs = append(t.OrgIDs, orgs.Intern(db.GKG.Orgs.Name(id)))
		}
		t.OrgPtr = append(t.OrgPtr, int64(len(t.OrgIDs)))
	}
	return store.AssembleGKG(p, t, themes, persons, orgs)
}
