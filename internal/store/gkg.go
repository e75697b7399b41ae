package store

import (
	"fmt"
	"slices"
	"sort"

	"gdeltmine/internal/gdelt"
)

// GKGTable is the columnar Global Knowledge Graph table: one row per
// annotated article, sorted by capture interval. Themes and persons are
// dictionary-encoded with CSR-style per-row lists. It holds only what a
// query reads: a record's source, tone and organizations are parsed but not
// stored.
type GKGTable struct {
	Interval   []int32
	Translated []bool

	ThemePtr  []int64 // len rows+1
	ThemeIDs  []int32
	PersonPtr []int64
	PersonIDs []int32
}

// Len returns the number of GKG rows.
func (t *GKGTable) Len() int { return len(t.Interval) }

// RowThemes returns the theme ids of row r (aliases storage).
func (t *GKGTable) RowThemes(r int) []int32 { return t.ThemeIDs[t.ThemePtr[r]:t.ThemePtr[r+1]] }

// RowPersons returns the person ids of row r.
func (t *GKGTable) RowPersons(r int) []int32 { return t.PersonIDs[t.PersonPtr[r]:t.PersonPtr[r+1]] }

// Validate checks the table's internal invariants against the dictionaries.
func (t *GKGTable) Validate(themes, persons *Dictionary) error {
	n := t.Len()
	if len(t.Translated) != n {
		return fmt.Errorf("store: gkg column lengths disagree")
	}
	if len(t.ThemePtr) != n+1 || len(t.PersonPtr) != n+1 {
		return fmt.Errorf("store: gkg csr pointer lengths disagree")
	}
	prev := int32(-1)
	for r := 0; r < n; r++ {
		if t.Interval[r] < prev {
			return fmt.Errorf("store: gkg rows not interval-sorted at %d", r)
		}
		prev = t.Interval[r]
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
	return check("person", t.PersonPtr, t.PersonIDs, persons)
}

// GKGStore bundles the GKG table with its dictionaries and theme postings.
// A DB without ingested GKG data has a nil GKGStore.
type GKGStore struct {
	Table   GKGTable
	Themes  *Dictionary
	Persons *Dictionary

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
func (g *GKGStore) Validate() error {
	if err := g.Table.Validate(g.Themes, g.Persons); err != nil {
		return err
	}
	if got := g.themePtr[g.Themes.Len()]; got != int64(len(g.Table.ThemeIDs)) {
		return fmt.Errorf("store: theme postings cover %d of %d", got, len(g.Table.ThemeIDs))
	}
	return nil
}

// AssembleGKG attaches a deserialized GKG store to a DB, rebuilding the
// postings and validating.
func AssembleGKG(db *DB, table GKGTable, themes, persons *Dictionary) error {
	g := &GKGStore{Table: table, Themes: themes, Persons: persons}
	// Validate the table before building postings: the counting sort in
	// buildThemePostings indexes by theme id, so out-of-range ids from a
	// corrupted binary load must fail here rather than panic there.
	if err := g.Table.Validate(themes, persons); err != nil {
		return err
	}
	g.buildThemePostings()
	if err := g.Validate(); err != nil {
		return err
	}
	db.GKG = g
	return nil
}

// gkgStaging is the builder-side accumulation of GKG rows.
type gkgStaging struct {
	themes  *Dictionary
	persons *Dictionary

	interval   []int32
	translated []bool
	themeCnt   []int32
	themeFlat  []int32
	personCnt  []int32
	personFlat []int32
}

// reserve sizes the per-row columns for n more rows.
func (g *gkgStaging) reserve(n int) {
	g.interval = slices.Grow(g.interval, n)
	g.translated = slices.Grow(g.translated, n)
	g.themeCnt = slices.Grow(g.themeCnt, n)
	g.personCnt = slices.Grow(g.personCnt, n)
}

// AddGKG stages one parsed GKG record. Records captured outside the archive
// span are dropped and counted as bad rows. The record's source is interned
// like a mention's, so the source dictionary does not depend on what the
// GKG table stores.
func (b *Builder) AddGKG(rec *gdelt.GKGRecord) {
	iv := rec.Date.IntervalIndex() - b.base
	if iv < 0 || iv >= int64(b.meta.Intervals) {
		b.dropped++
		b.report.Record(gdelt.DefectBadRow, fmt.Sprintf("gkg record %s outside archive", rec.RecordID))
		return
	}
	if b.gkg == nil {
		b.gkg = &gkgStaging{themes: NewDictionary(), persons: NewDictionary()}
		b.gkg.reserve(b.gkgReserve)
	}
	g := b.gkg
	b.sources.Intern(rec.SourceName)
	g.interval = append(g.interval, int32(iv))
	g.translated = append(g.translated, rec.Translated)
	g.themeCnt = append(g.themeCnt, int32(len(rec.Themes)))
	for _, th := range rec.Themes {
		g.themeFlat = append(g.themeFlat, g.themes.Intern(th))
	}
	g.personCnt = append(g.personCnt, int32(len(rec.Persons)))
	for _, p := range rec.Persons {
		g.personFlat = append(g.personFlat, g.persons.Intern(p))
	}
}

// finishGKG sorts the staged rows by interval and assembles the GKG store,
// every column at its exact length.
func (b *Builder) finishGKG(db *DB) error {
	g := b.gkg
	if g == nil {
		return nil
	}
	n := len(g.interval)
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(a, c int) bool { return g.interval[order[a]] < g.interval[order[c]] })

	// Prefix offsets of the staged (unsorted) CSR lists.
	themeOff := prefix(g.themeCnt)
	personOff := prefix(g.personCnt)

	t := GKGTable{
		Interval:   make([]int32, 0, n),
		Translated: make([]bool, 0, n),
		ThemePtr:   append(make([]int64, 0, n+1), 0),
		ThemeIDs:   make([]int32, 0, len(g.themeFlat)),
		PersonPtr:  append(make([]int64, 0, n+1), 0),
		PersonIDs:  make([]int32, 0, len(g.personFlat)),
	}
	for _, o := range order {
		t.Interval = append(t.Interval, g.interval[o])
		t.Translated = append(t.Translated, g.translated[o])
		t.ThemeIDs = append(t.ThemeIDs, g.themeFlat[themeOff[o]:themeOff[o]+int64(g.themeCnt[o])]...)
		t.ThemePtr = append(t.ThemePtr, int64(len(t.ThemeIDs)))
		t.PersonIDs = append(t.PersonIDs, g.personFlat[personOff[o]:personOff[o]+int64(g.personCnt[o])]...)
		t.PersonPtr = append(t.PersonPtr, int64(len(t.PersonIDs)))
	}
	return AssembleGKG(db, t, g.themes, g.persons)
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
