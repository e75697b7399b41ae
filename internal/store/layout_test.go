package store_test

import (
	"bytes"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"gdeltmine/internal/binfmt"
	"gdeltmine/internal/convert"
	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/shard"
	"gdeltmine/internal/store"
)

// footprint is the resident size of one structure of a store: every byte
// its slices hold at capacity, and the share of those that is spare
// capacity beyond the length.
type footprint struct{ bytes, spare int }

// census returns the footprint of every structure db holds, keyed by field
// path: one entry per column of Events, Mentions and GKG.Table ("Events.ID",
// "GKG.Table.ThemeIDs"), one per other field of the DB and the GKG store
// ("bySourceIdx", "GKG.Themes"). A slice counts capacity × element size
// plus what its elements reach, a string (header included in its slice or
// struct) its bytes, a pointer its target, a map its entries at key plus
// value size. Storage reached twice — a dictionary two fields share, a name
// held by a dictionary's list and its map — counts once, for the first path
// that reaches it, in field order.
func census(db *store.DB) map[string]footprint {
	z := sizer{seen: map[uintptr]bool{}}
	out := map[string]footprint{}
	var walk func(prefix string, v reflect.Value, expand func(name string) bool)
	walk = func(prefix string, v reflect.Value, expand func(name string) bool) {
		for i := range v.NumField() {
			name, f := v.Type().Field(i).Name, v.Field(i)
			switch {
			case f.Kind() == reflect.Struct && expand(name):
				walk(prefix+name+".", f, func(string) bool { return false })
			case f.Kind() == reflect.Pointer && !f.IsNil() && expand(name):
				walk(prefix+name+".", f.Elem(), func(n string) bool { return n == "Table" })
			default:
				z.fp = footprint{}
				z.add(f)
				out[prefix+name] = z.fp
			}
		}
	}
	walk("", reflect.ValueOf(db).Elem(), func(n string) bool { return n == "Events" || n == "Mentions" || n == "GKG" })
	return out
}

// sizer accumulates the footprint of the storage a value reaches.
type sizer struct {
	seen map[uintptr]bool
	fp   footprint
}

func (z *sizer) first(p uintptr) bool {
	if p == 0 || z.seen[p] {
		return false
	}
	z.seen[p] = true
	return true
}

func (z *sizer) add(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if z.first(v.Pointer()) {
			z.fp.bytes += int(v.Type().Elem().Size())
			z.add(v.Elem())
		}
	case reflect.Slice:
		if z.first(v.Pointer()) {
			elem := int(v.Type().Elem().Size())
			z.fp.bytes += v.Cap() * elem
			z.fp.spare += (v.Cap() - v.Len()) * elem
			for i := range v.Len() {
				z.add(v.Index(i))
			}
		}
	case reflect.String:
		if s := v.String(); z.first(uintptr(unsafe.Pointer(unsafe.StringData(s)))) {
			z.fp.bytes += len(s)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			z.add(v.Field(i))
		}
	case reflect.Array:
		for i := range v.Len() {
			z.add(v.Index(i))
		}
	case reflect.Map:
		if z.first(v.Pointer()) {
			z.fp.bytes += v.Len() * int(v.Type().Key().Size()+v.Type().Elem().Size())
			for it := v.MapRange(); it.Next(); {
				z.add(it.Key())
				z.add(it.Value())
			}
		}
	}
}

// logCensus logs db's census as bytes per mention, largest first.
func logCensus(t *testing.T, what string, db *store.DB) {
	t.Helper()
	c := census(db)
	nm := float64(db.Mentions.Len())
	var total int
	var b strings.Builder
	for _, name := range slices.SortedFunc(maps.Keys(c), func(a, b string) int { return c[b].bytes - c[a].bytes }) {
		total += c[name].bytes
		fmt.Fprintf(&b, "\n  %-24s %10d B %7.2f B/mention", name, c[name].bytes, float64(c[name].bytes)/nm)
	}
	t.Logf("%s census, %d mentions: %.2f B/mention%s", what, db.Mentions.Len(), float64(total)/nm, b.String())
}

// TestPostingsLayout is the counted layout guard of the mention postings
// (DESIGN.md §10): on the Small preset their resident bytes must equal the
// documented layout — 4 B per mention for bySourceIdx, 8 B per mention for
// the event payload (byEventSrc, byEventIv), and a 4 B offset per source
// and per event plus one sentinel each; there is no other postings column.
// A change that adds resident bytes here has to update the figures.
func TestPostingsLayout(t *testing.T) {
	c, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	b, err := store.NewBuilder(gdelt.Timestamp(c.World.Cfg.Start), int32(c.World.Days()*gdelt.IntervalsPerDay))
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Events {
		ev := c.EventRecord(i)
		b.AddEvent(&ev)
	}
	for j := range c.Mentions {
		mn := c.MentionRecord(j)
		b.AddMention(&mn)
	}
	db, _, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	nm, ns, ne := db.Mentions.Len(), db.Sources.Len(), db.Events.Len()
	want := map[string]int{
		"bySourcePtr": 4 * (ns + 1),
		"bySourceIdx": 4 * nm,
		"byEventPtr":  4 * (ne + 1),
		"byEventSrc":  4 * nm,
		"byEventIv":   4 * nm,
	}
	got := map[string]int{}
	for name, fp := range census(db) {
		if strings.HasPrefix(name, "by") {
			got[name] = fp.bytes
		}
	}
	if !slices.Equal(slices.Sorted(maps.Keys(got)), slices.Sorted(maps.Keys(want))) {
		t.Errorf("postings columns %v, the layout names %v", slices.Sorted(maps.Keys(got)), slices.Sorted(maps.Keys(want)))
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s holds %d B, the layout says %d B", name, got[name], w)
		}
	}
	t.Logf("postings of %d mentions, %d sources, %d events: %d B", nm, ns, ne, 12*nm+4*(ns+1)+4*(ne+1))
}

// TestColumnsExact: every column of the event, mention and GKG tables sits
// at its exact length — no spare capacity stays resident — on a store that
// Builder.Finish built, on one binfmt.Read decoded, and on every part of a
// shard.Split. It logs the Small preset's census.
func TestColumnsExact(t *testing.T) {
	c, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	res, err := convert.FromCorpus(c)
	if err != nil {
		t.Fatal(err)
	}
	built := res.DB
	if built.GKG == nil {
		t.Fatal("the Small preset carries no GKG")
	}
	var buf bytes.Buffer
	if err := binfmt.Write(&buf, built); err != nil {
		t.Fatal(err)
	}
	read, err := binfmt.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sdb, err := shard.Split(built, 4)
	if err != nil {
		t.Fatal(err)
	}
	dbs := map[string]*store.DB{"built": built, "read": read}
	for i := range sdb.K() {
		dbs[fmt.Sprintf("part %d", i)] = sdb.Part(i)
	}
	for what, db := range dbs {
		columns := 0
		for name, fp := range census(db) {
			if strings.HasPrefix(name, "Events.") || strings.HasPrefix(name, "Mentions.") || strings.HasPrefix(name, "GKG.Table.") {
				columns++
				if fp.spare != 0 {
					t.Errorf("%s %s: %d B of spare capacity", what, name, fp.spare)
				}
			}
		}
		if want := reflect.TypeFor[store.EventTable]().NumField() + reflect.TypeFor[store.MentionTable]().NumField() +
			reflect.TypeFor[store.GKGTable]().NumField(); columns != want {
			t.Errorf("%s: the census holds %d table columns, the tables %d", what, columns, want)
		}
	}
	logCensus(t, "Small preset", built)
}
