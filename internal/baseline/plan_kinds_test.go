package baseline

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"testing"

	"gdeltmine/internal/engine"
	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/queries"
	"gdeltmine/internal/registry"
	"gdeltmine/internal/shard"
	"gdeltmine/internal/store"
)

// TestPlanKindsMatchRowStore pins every kind declared as a plan — on the
// monolith's engine and on sharded views of K ∈ {Single, 1, 3, 5} — by
// its encoded JSON against an answer built from row-store counts: one pass
// over the record structs with the delay, country and quarter re-derived
// from the timestamps and domain names. It covers the full archive, one
// quarter and the publisherWindows (the empty one included); k = 1, the
// default and every source (top-publishers pads zero-count sources,
// filtered-publishers does not); and a where that matches nothing and
// wheres with residual clauses, over a scan and under pushdown.
func TestPlanKindsMatchRowStore(t *testing.T) {
	db := buildCorpus(t, gen.Small())
	rs := NewRowStore(db)
	ns := db.Sources.Len()

	uk := gdelt.CountryIndex("UK")
	wheres := map[string]func(m *gdelt.Mention) bool{
		"":                              func(*gdelt.Mention) bool { return true },
		"source=nowhere.example":        func(*gdelt.Mention) bool { return false },
		"doclen>1500":                   func(m *gdelt.Mention) bool { return m.DocLen > 1500 },
		"sourcecountry=UK and delay>96": func(m *gdelt.Mention) bool { return gdelt.CountryFromDomain(m.SourceName) == uk && m.Delay() > 96 },
	}
	type run struct {
		kind  string
		where string
		k     int // 0: the default
	}
	var runs []run
	for _, k := range []int{1, 0, ns} {
		runs = append(runs, run{"top-publishers", "", k})
	}
	runs = append(runs, run{"series-articles", "", 0}, run{"series-slow-articles", "", 0})
	for where := range wheres {
		runs = append(runs, run{"count", where, 0}, run{"filtered-series", where, 0})
		for _, k := range []int{1, 0, ns} {
			runs = append(runs, run{"filtered-publishers", where, k})
		}
	}

	q4lo, q4hi := quarterIntervals(db, 4)
	windows := map[string][2]int32{"full": {0, db.Meta.Intervals}, "quarter4": {q4lo, q4hi}}
	for i, w := range publisherWindows {
		windows[fmt.Sprintf("pw%d", i)] = w
	}

	layouts := map[string]*shard.DB{}
	single, err := shard.Single(db)
	if err != nil {
		t.Fatal(err)
	}
	layouts["Single"] = single
	for _, k := range []int{1, 3, 5} {
		if layouts[fmt.Sprintf("K%d", k)], err = shard.Split(db, k); err != nil {
			t.Fatal(err)
		}
	}

	for wname, w := range windows {
		refs := map[string]*rowCounts{}
		for where, keep := range wheres {
			refs[where] = countRows(rs, w, keep)
		}
		slow := countRows(rs, w, func(m *gdelt.Mention) bool { return m.Delay() > gdelt.IntervalsPerDay })
		for _, r := range runs {
			d := registry.MustLookup(r.kind)
			p, err := d.ParseParams(func(name string) []string {
				switch {
				case name == "where":
					return []string{r.where}
				case name == "k" && r.k > 0:
					return []string{strconv.Itoa(r.k)}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			var want any
			switch r.kind {
			case "top-publishers":
				want = refs[""].publishers(db, p.Int("k"), true)
			case "filtered-publishers":
				want = refs[r.where].publishers(db, p.Int("k"), false)
			case "series-articles":
				want = refs[""].series(db)
			case "series-slow-articles":
				want = slow.series(db)
			case "filtered-series":
				want = refs[r.where].series(db)
			case "count":
				want = registry.CountResult{Where: p.Str("where"), Articles: refs[r.where].total}
			}
			name := fmt.Sprintf("%s/%s/where=%q/k=%d", wname, r.kind, r.where, r.k)
			got, err := d.Run(engine.New(db).WithWorkers(2).WithInterval(w[0], w[1]), p)
			eqJSON(t, name+"/engine", got, err, want)
			for lname, sdb := range layouts {
				got, err := d.RunSharded(sdb.View().WithWorkers(2).WithWindow(w[0], w[1]), p)
				eqJSON(t, name+"/"+lname, got, err, want)
			}
		}
	}
}

// rowCounts is a row-store tally of the mentions one where admits inside
// one capture window: their number, per source name and per quarter.
type rowCounts struct {
	total     int64
	bySource  map[string]int64
	byQuarter []int64
}

// countRows tallies the row store's mentions captured in [w[0], w[1]) that
// keep admits, one record struct at a time.
func countRows(rs *RowStore, w [2]int32, keep func(m *gdelt.Mention) bool) *rowCounts {
	c := &rowCounts{bySource: map[string]int64{}, byQuarter: make([]int64, rs.quarters)}
	base := rs.start.IntervalIndex()
	for i := range rs.Mentions {
		m := &rs.Mentions[i]
		if iv := m.MentionTime.IntervalIndex() - base; iv < int64(w[0]) || iv >= int64(w[1]) || !keep(m) {
			continue
		}
		c.total++
		c.bySource[m.SourceName]++
		c.byQuarter[rs.quarterOf(m.MentionTime)]++
	}
	return c
}

// publishers ranks db's sources by the tally, the lower dictionary id first
// on ties, as top-publishers rows: k of them with pad, else at most the k
// sources with a tallied row.
func (c *rowCounts) publishers(db *store.DB, k int, pad bool) []registry.PublisherRow {
	ids := make([]int32, db.Sources.Len())
	for i := range ids {
		ids[i] = int32(i)
	}
	count := func(id int32) int64 { return c.bySource[db.Sources.Name(id)] }
	sort.SliceStable(ids, func(a, b int) bool { return count(ids[a]) > count(ids[b]) })
	rows := []registry.PublisherRow{}
	for _, id := range ids {
		if len(rows) == k || (!pad && count(id) == 0) {
			break
		}
		rows = append(rows, registry.PublisherRow{Rank: len(rows) + 1, Source: db.Sources.Name(id), Articles: count(id)})
	}
	return rows
}

// series is the tally's quarterly series.
func (c *rowCounts) series(db *store.DB) queries.QuarterlySeries {
	labels := make([]string, len(c.byQuarter))
	for q := range labels {
		labels[q] = db.QuarterLabel(q)
	}
	return queries.QuarterlySeries{Labels: labels, Values: c.byQuarter}
}

// quarterIntervals returns the capture-interval span [lo, hi) of quarter q.
func quarterIntervals(db *store.DB, q int) (lo, hi int32) {
	lo, hi = -1, -1
	for iv := int32(0); iv < db.Meta.Intervals; iv++ {
		if db.QuarterOfInterval(iv) == q {
			if lo < 0 {
				lo = iv
			}
			hi = iv + 1
		}
	}
	return lo, hi
}

// eqJSON compares an answer's JSON encoding with the reference's.
func eqJSON(t *testing.T, name string, got any, err error, want any) {
	t.Helper()
	if err != nil {
		t.Errorf("%s: %v", name, err)
		return
	}
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Errorf("%s:\n got %s\nwant %s", name, g, w)
	}
}
