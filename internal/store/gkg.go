package store

import (
	"cmp"
	"fmt"
	"slices"

	"gdeltmine/internal/gdelt"
)

// GKGTable is the columnar Global Knowledge Graph table: one row per
// annotated article, sorted by capture interval. It holds only what a
// query reads: a record's themes live in the store's theme postings, and
// its source, tone, persons and organizations are parsed but not stored.
type GKGTable struct {
	Interval   []int32
	Translated []bool
}

// Len returns the number of GKG rows.
func (t *GKGTable) Len() int { return len(t.Interval) }

// GKGStore bundles the GKG table with its theme dictionary and theme
// postings. The postings are the only form a row's themes are held in:
// every theme kernel reads a theme's rows, none a row's themes.
// A DB without ingested GKG data has a nil GKGStore.
type GKGStore struct {
	Table  GKGTable
	Themes *Dictionary

	// themeIdx[themePtr[t]:themePtr[t+1]] lists the GKG rows carrying
	// theme t, ascending; a row that lists t twice appears twice.
	themePtr []int64
	themeIdx []int32
}

// ThemeRows returns the GKG rows annotated with theme id t, ascending, one
// entry per occurrence (aliases storage).
func (g *GKGStore) ThemeRows(t int32) []int32 {
	return g.themeIdx[g.themePtr[t]:g.themePtr[t+1]]
}

// Validate checks the store's invariants: column lengths, interval order,
// and postings that cover one list per dictionary theme, each ascending
// over rows of the table.
func (g *GKGStore) Validate() error {
	t := &g.Table
	n := t.Len()
	if len(t.Translated) != n {
		return fmt.Errorf("store: gkg column lengths disagree")
	}
	for r := 1; r < n; r++ {
		if t.Interval[r] < t.Interval[r-1] {
			return fmt.Errorf("store: gkg rows not interval-sorted at %d", r)
		}
	}
	nt := g.Themes.Len()
	if len(g.themePtr) != nt+1 {
		return fmt.Errorf("store: gkg postings for %d themes, the dictionary holds %d", len(g.themePtr)-1, nt)
	}
	if g.themePtr[0] != 0 || g.themePtr[nt] != int64(len(g.themeIdx)) {
		return fmt.Errorf("store: gkg theme postings pointers do not cover %d row ids", len(g.themeIdx))
	}
	for th := range int32(nt) {
		if p := g.themePtr[th+1]; p < g.themePtr[th] || p > int64(len(g.themeIdx)) {
			return fmt.Errorf("store: gkg theme postings pointers not monotone at %d", th)
		}
		prev := int32(0)
		for _, r := range g.ThemeRows(th) {
			if r < prev {
				return fmt.Errorf("store: gkg theme %d rows not ascending", th)
			}
			if int(r) >= n {
				return fmt.Errorf("store: gkg theme %d row %d past the table of %d rows", th, r, n)
			}
			prev = r
		}
	}
	return nil
}

// AssembleGKG attaches a GKG store to db: the table, its theme dictionary
// and the theme postings, which hold theme t's rows at
// themeIdx[themePtr[t]:themePtr[t+1]]. Every invariant is validated, so a
// corrupted binary load fails here.
func AssembleGKG(db *DB, table GKGTable, themes *Dictionary, themePtr []int64, themeIdx []int32) error {
	g := &GKGStore{Table: table, Themes: themes, themePtr: themePtr, themeIdx: themeIdx}
	if err := g.Validate(); err != nil {
		return err
	}
	db.GKG = g
	return nil
}

// gkgStaging is the builder-side accumulation of GKG rows.
type gkgStaging struct {
	themes *Dictionary

	interval   []int32
	translated []bool
	themeCnt   []int32
	themeFlat  []int32
}

// reserve sizes the staging for rows more GKG rows that carry themes
// theme occurrences between them.
func (g *gkgStaging) reserve(rows, themes int) {
	g.interval = slices.Grow(g.interval, rows)
	g.translated = slices.Grow(g.translated, rows)
	g.themeCnt = slices.Grow(g.themeCnt, rows)
	g.themeFlat = slices.Grow(g.themeFlat, themes)
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
		b.gkg = &gkgStaging{themes: NewDictionary()}
		b.gkg.reserve(b.gkgReserve.rows, b.gkgReserve.themes)
	}
	g := b.gkg
	b.sources.Intern(rec.SourceName)
	g.interval = append(g.interval, int32(iv))
	g.translated = append(g.translated, rec.Translated)
	g.themeCnt = append(g.themeCnt, int32(len(rec.Themes)))
	for _, th := range rec.Themes {
		g.themeFlat = append(g.themeFlat, g.themes.Intern(th))
	}
}

// finishGKG orders the staged rows by interval (stably) and assembles the
// GKG store, every column at its exact length. The theme postings are
// filled straight from the staged theme lists in row order, so each
// theme's rows come out ascending.
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
	slices.SortStableFunc(order, func(a, c int32) int { return cmp.Compare(g.interval[a], g.interval[c]) })

	// Start of each staged row's theme list in themeFlat.
	off := make([]int64, n)
	var acc int64
	for i, c := range g.themeCnt {
		off[i] = acc
		acc += int64(c)
	}

	nt := g.themes.Len()
	ptr := make([]int64, nt+1)
	for _, id := range g.themeFlat {
		ptr[id+1]++
	}
	for th := range nt {
		ptr[th+1] += ptr[th]
	}
	idx := make([]int32, len(g.themeFlat))
	next := slices.Clone(ptr[:nt])
	t := GKGTable{Interval: make([]int32, n), Translated: make([]bool, n)}
	for r, o := range order {
		t.Interval[r] = g.interval[o]
		t.Translated[r] = g.translated[o]
		for _, id := range g.themeFlat[off[o] : off[o]+int64(g.themeCnt[o])] {
			idx[next[id]] = int32(r)
			next[id]++
		}
	}
	return AssembleGKG(db, t, g.themes, ptr, idx)
}
