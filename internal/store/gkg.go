package store

import (
	"fmt"
	"sort"

	"gdeltmine/internal/gdelt"
)

// GKGTable is the columnar Global Knowledge Graph table: one row per
// annotated article, sorted by capture interval. Themes, persons and
// organizations are dictionary-encoded with CSR-style per-row lists.
type GKGTable struct {
	Source     []int32 // id in the shared source dictionary
	Interval   []int32
	Tone       []float32
	Translated []bool

	ThemePtr  []int64 // len rows+1
	ThemeIDs  []int32
	PersonPtr []int64
	PersonIDs []int32
	OrgPtr    []int64
	OrgIDs    []int32
}

// Len returns the number of GKG rows.
func (t *GKGTable) Len() int { return len(t.Source) }

// RowThemes returns the theme ids of row r (aliases storage).
func (t *GKGTable) RowThemes(r int) []int32 { return t.ThemeIDs[t.ThemePtr[r]:t.ThemePtr[r+1]] }

// RowPersons returns the person ids of row r.
func (t *GKGTable) RowPersons(r int) []int32 { return t.PersonIDs[t.PersonPtr[r]:t.PersonPtr[r+1]] }

// Validate checks the table's internal invariants against the dictionaries.
func (t *GKGTable) Validate(sources, themes, persons, orgs *Dictionary) error {
	n := t.Len()
	if len(t.Interval) != n || len(t.Tone) != n || len(t.Translated) != n {
		return fmt.Errorf("store: gkg column lengths disagree")
	}
	if len(t.ThemePtr) != n+1 || len(t.PersonPtr) != n+1 || len(t.OrgPtr) != n+1 {
		return fmt.Errorf("store: gkg csr pointer lengths disagree")
	}
	prev := int32(-1)
	for r := 0; r < n; r++ {
		if t.Interval[r] < prev {
			return fmt.Errorf("store: gkg rows not interval-sorted at %d", r)
		}
		prev = t.Interval[r]
		if s := t.Source[r]; s < 0 || int(s) >= sources.Len() {
			return fmt.Errorf("store: gkg row %d source %d out of range", r, s)
		}
	}
	check := func(name string, ptr []int64, ids []int32, dict *Dictionary) error {
		if ptr[0] != 0 || ptr[n] != int64(len(ids)) {
			return fmt.Errorf("store: gkg %s csr does not cover ids", name)
		}
		for r := 0; r < n; r++ {
			if ptr[r+1] < ptr[r] {
				return fmt.Errorf("store: gkg %s csr not monotone at %d", name, r)
			}
		}
		for _, id := range ids {
			if id < 0 || int(id) >= dict.Len() {
				return fmt.Errorf("store: gkg %s id %d out of range", name, id)
			}
		}
		return nil
	}
	if err := check("theme", t.ThemePtr, t.ThemeIDs, themes); err != nil {
		return err
	}
	if err := check("person", t.PersonPtr, t.PersonIDs, persons); err != nil {
		return err
	}
	return check("org", t.OrgPtr, t.OrgIDs, orgs)
}

// GKGStore bundles the GKG table with its dictionaries and theme postings.
// A DB without ingested GKG data has a nil GKGStore.
type GKGStore struct {
	Table   GKGTable
	Themes  *Dictionary
	Persons *Dictionary
	Orgs    *Dictionary

	// themePost[t] lists GKG rows carrying theme t, ascending by interval.
	themePtr []int64
	themeIdx []int32
}

// ThemeRows returns the GKG rows annotated with theme id t.
func (g *GKGStore) ThemeRows(t int32) []int32 {
	return g.themeIdx[g.themePtr[t]:g.themePtr[t+1]]
}

// buildThemePostings derives the theme -> rows index.
func (g *GKGStore) buildThemePostings() {
	nt := g.Themes.Len()
	g.themePtr = make([]int64, nt+1)
	for _, id := range g.Table.ThemeIDs {
		g.themePtr[id+1]++
	}
	for t := 0; t < nt; t++ {
		g.themePtr[t+1] += g.themePtr[t]
	}
	g.themeIdx = make([]int32, len(g.Table.ThemeIDs))
	cur := make([]int64, nt)
	for r := 0; r < g.Table.Len(); r++ {
		for _, id := range g.Table.RowThemes(r) {
			g.themeIdx[g.themePtr[id]+cur[id]] = int32(r)
			cur[id]++
		}
	}
}

// Validate checks the store's invariants.
func (g *GKGStore) Validate(sources *Dictionary) error {
	if err := g.Table.Validate(sources, g.Themes, g.Persons, g.Orgs); err != nil {
		return err
	}
	if got := g.themePtr[g.Themes.Len()]; got != int64(len(g.Table.ThemeIDs)) {
		return fmt.Errorf("store: theme postings cover %d of %d", got, len(g.Table.ThemeIDs))
	}
	return nil
}

// AssembleGKG attaches a deserialized GKG store to a DB, rebuilding the
// postings and validating.
func AssembleGKG(db *DB, table GKGTable, themes, persons, orgs *Dictionary) error {
	g := &GKGStore{Table: table, Themes: themes, Persons: persons, Orgs: orgs}
	// Validate the table before building postings: the counting sort in
	// buildThemePostings indexes by theme id, so out-of-range ids from a
	// corrupted binary load must fail here rather than panic there.
	if err := g.Table.Validate(db.Sources, themes, persons, orgs); err != nil {
		return err
	}
	g.buildThemePostings()
	if err := g.Validate(db.Sources); err != nil {
		return err
	}
	db.GKG = g
	return nil
}

// gkgStaging is the builder-side accumulation of GKG rows.
type gkgStaging struct {
	themes  *Dictionary
	persons *Dictionary
	orgs    *Dictionary

	source     []int32
	interval   []int32
	tone       []float32
	translated []bool
	themeCnt   []int32
	themeFlat  []int32
	personCnt  []int32
	personFlat []int32
	orgCnt     []int32
	orgFlat    []int32
}

// AddGKG stages one parsed GKG record. Records captured outside the archive
// span are dropped and counted as bad rows.
func (b *Builder) AddGKG(rec *gdelt.GKGRecord) {
	iv := rec.Date.IntervalIndex() - b.base
	if iv < 0 || iv >= int64(b.meta.Intervals) {
		b.dropped++
		b.report.Record(gdelt.DefectBadRow, fmt.Sprintf("gkg record %s outside archive", rec.RecordID))
		return
	}
	if b.gkg == nil {
		b.gkg = &gkgStaging{
			themes:  NewDictionary(),
			persons: NewDictionary(),
			orgs:    NewDictionary(),
		}
	}
	g := b.gkg
	g.source = append(g.source, b.sources.Intern(rec.SourceName))
	g.interval = append(g.interval, int32(iv))
	g.tone = append(g.tone, rec.Tone)
	g.translated = append(g.translated, rec.Translated)
	g.themeCnt = append(g.themeCnt, int32(len(rec.Themes)))
	for _, th := range rec.Themes {
		g.themeFlat = append(g.themeFlat, g.themes.Intern(th))
	}
	g.personCnt = append(g.personCnt, int32(len(rec.Persons)))
	for _, p := range rec.Persons {
		g.personFlat = append(g.personFlat, g.persons.Intern(p))
	}
	g.orgCnt = append(g.orgCnt, int32(len(rec.Organizations)))
	for _, o := range rec.Organizations {
		g.orgFlat = append(g.orgFlat, g.orgs.Intern(o))
	}
}

// finishGKG sorts the staged rows by interval and assembles the GKG store.
func (b *Builder) finishGKG(db *DB) error {
	g := b.gkg
	if g == nil {
		return nil
	}
	n := len(g.source)
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(a, c int) bool { return g.interval[order[a]] < g.interval[order[c]] })

	// Prefix offsets of the staged (unsorted) CSR lists.
	themeOff := prefix(g.themeCnt)
	personOff := prefix(g.personCnt)
	orgOff := prefix(g.orgCnt)

	var t GKGTable
	t.ThemePtr = append(t.ThemePtr, 0)
	t.PersonPtr = append(t.PersonPtr, 0)
	t.OrgPtr = append(t.OrgPtr, 0)
	for _, o := range order {
		t.Source = append(t.Source, g.source[o])
		t.Interval = append(t.Interval, g.interval[o])
		t.Tone = append(t.Tone, g.tone[o])
		t.Translated = append(t.Translated, g.translated[o])
		t.ThemeIDs = append(t.ThemeIDs, g.themeFlat[themeOff[o]:themeOff[o]+int64(g.themeCnt[o])]...)
		t.ThemePtr = append(t.ThemePtr, int64(len(t.ThemeIDs)))
		t.PersonIDs = append(t.PersonIDs, g.personFlat[personOff[o]:personOff[o]+int64(g.personCnt[o])]...)
		t.PersonPtr = append(t.PersonPtr, int64(len(t.PersonIDs)))
		t.OrgIDs = append(t.OrgIDs, g.orgFlat[orgOff[o]:orgOff[o]+int64(g.orgCnt[o])]...)
		t.OrgPtr = append(t.OrgPtr, int64(len(t.OrgIDs)))
	}
	return AssembleGKG(db, t, g.themes, g.persons, g.orgs)
}

func prefix(counts []int32) []int64 {
	out := make([]int64, len(counts))
	var acc int64
	for i, c := range counts {
		out[i] = acc
		acc += int64(c)
	}
	return out
}
