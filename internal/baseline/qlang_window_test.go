package baseline

import (
	"fmt"
	"strconv"
	"testing"

	"gdeltmine/internal/convert"
	"gdeltmine/internal/engine"
	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/queries"
	"gdeltmine/internal/shard"
	"gdeltmine/internal/store"
)

// Windowed-plan battery (DESIGN.md §13): a windowed plan reads only its
// window — index operands are clipped to it before they are counted,
// intersected or listed, a residual-free group=quarter count is answered
// from the quarter row offsets, and a shard the window misses is not run.
// Each case is checked against the naive evaluator on the monolith's
// engine and at K ∈ {Single, 1, 3, 5}.

// windowWorldRows is the smallest mention count the battery's world must
// reach: three full 65,536-row bitmap containers and part of a fourth, so
// window edges can fall inside a container that is neither the first nor
// the last.
const windowWorldRows = 3*65536 + 1

// windowWorld is a Small-shaped world four times as dense, so its mention
// rows span several bitmap containers.
func windowWorld(t *testing.T) *store.DB {
	t.Helper()
	cfg := gen.Small()
	cfg.Seed = 4242
	cfg.Sources = 200
	cfg.EventsPerDay = 44
	cfg.GKG = false
	c, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := convert.FromCorpus(c)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.DB.Mentions.Len(); n < windowWorldRows {
		t.Fatalf("window world has %d mention rows, want at least %d", n, windowWorldRows)
	}
	return res.DB
}

// windowLayouts returns the world at each K the battery runs at, keyed
// by K; 0 is shard.Single.
func windowLayouts(t *testing.T, db *store.DB) map[int]*shard.DB {
	t.Helper()
	layouts := map[int]*shard.DB{}
	for _, k := range []int{0, 1, 3, 5} {
		layouts[k] = shardWorld(t, db, k)
	}
	return layouts
}

// checkWindowedCase runs one spec over the capture window [from, to) on
// the monolith's engine and on every layout, each against the naive
// evaluator.
func checkWindowedCase(t *testing.T, db *store.DB, layouts map[int]*shard.DB, c adhocCase, from, to int32) {
	t.Helper()
	spec, err := queries.ParseAdhocSpec(c.where, c.group, c.agg, queries.DefaultAdhocK)
	if err != nil {
		t.Fatalf("%q: %v", c.where, err)
	}
	want := naiveAdhoc(db, spec, from, to)
	for _, w := range differentialWorkers {
		t.Run(fmt.Sprintf("engine/w%d", w), func(t *testing.T) {
			got, err := queries.AdhocVectors(engine.New(db).WithWorkers(w).WithInterval(from, to), spec)
			if err != nil {
				t.Fatal(err)
			}
			eqAdhocVec(t, spec, got, want, w)
		})
		for k, sdb := range layouts {
			t.Run(fmt.Sprintf("K%d/w%d", k, w), func(t *testing.T) {
				got, err := sdb.View().WithWorkers(w).WithWindow(from, to).AdhocVectors(spec)
				if err != nil {
					t.Fatal(err)
				}
				eqAdhocVec(t, spec, got, want, w)
			})
		}
	}
	if t.Failed() {
		t.Logf("where=%q group=%q agg=%q window [%d,%d)", c.where, c.group, c.agg, from, to)
	}
}

// rowWindow returns the capture window whose mention rows start at the
// interval of row lo and end before the interval of row hi.
func rowWindow(db *store.DB, lo, hi int) (from, to int32) {
	return db.Mentions.Interval[lo], db.Mentions.Interval[hi]
}

// TestQlangWindowCutsContainers runs index-operand plans over windows whose
// row edges fall inside 65,536-row bitmap containers: across several
// containers, inside one, and from the table's start to mid-container.
// Single country clauses list their bitmap's rows in the window, two
// country clauses intersect clipped bitmaps, and source clauses clip
// postings; range-narrowed and residual-filtered variants ride along.
func TestQlangWindowCutsContainers(t *testing.T) {
	db := windowWorld(t)
	layouts := windowLayouts(t, db)
	countries := presentCountries(db)
	big, small := countryByVolume(db, countries)
	src := db.Sources.Name(db.Mentions.Source[100000])
	ev := gdelt.Countries[db.Events.Country[db.Mentions.EventRow[70000]]].FIPS
	if db.Events.Country[db.Mentions.EventRow[70000]] < 0 {
		ev = countries[0]
	}
	cases := []adhocCase{
		{"sourcecountry=" + small, "", "count"},
		{"sourcecountry=" + small, "quarter", "sum:doclen"},
		{"sourcecountry=" + big, "source", "count"},
		{"sourcecountry=" + big + " and eventcountry=" + ev, "sourcecountry", "count"},
		{"sourcecountry=" + small + " and eventcountry=" + ev + " and tone<0", "", "mean:delay"},
		{"eventcountry=" + ev, "eventcountry", "mean:tone"},
		{"source=" + src, "quarter", "count"},
		{"source=" + src + " and sourcecountry=" + big, "", "sum:articles"},
		{"sourcecountry=" + small + " and interval>=" + strconv.Itoa(int(db.Mentions.Interval[90000])), "source", "count"},
	}
	cases = append(cases, randomAdhocCases(db, 31337, 6)...)
	windows := [][2]int{
		{65536 + 1234, 2*65536 + 4321},   // edges in two different middle containers
		{2*65536 + 777, 2*65536 + 50000}, // both edges in one container
		{0, 65536 + 33},                  // from the start into the second container
	}
	paths := map[string]bool{}
	for wi, rw := range windows {
		from, to := rowWindow(db, rw[0], rw[1])
		lo, hi := db.MentionRowRange(from, to)
		if (lo > 0 && lo%65536 == 0) || hi%65536 == 0 {
			t.Fatalf("window %d rows [%d,%d) do not cut containers", wi, lo, hi)
		}
		for ci, c := range cases {
			spec, err := queries.ParseAdhocSpec(c.where, c.group, c.agg, queries.DefaultAdhocK)
			if err != nil {
				t.Fatal(err)
			}
			paths[queries.ExplainAdhoc(engine.New(db).WithInterval(from, to), spec).Path] = true
			t.Run(fmt.Sprintf("win%d/case%d", wi, ci), func(t *testing.T) {
				checkWindowedCase(t, db, layouts, c, from, to)
			})
		}
	}
	checkPathCoverage(t, 0, paths)
}

// countryByVolume returns the publisher country with the most mention
// rows and one with a small nonzero share (about a hundredth of the most).
func countryByVolume(db *store.DB, countries []string) (big, small string) {
	vol := map[string]int64{}
	for _, c := range countries {
		vol[c] = db.CountryRowBitmap(gdelt.CountryIndex(c)).Cardinality()
	}
	big = countries[0]
	for _, c := range countries {
		if vol[c] > vol[big] {
			big = c
		}
	}
	small = big
	for _, c := range countries {
		if v := vol[c]; v > 0 && v >= vol[big]/100 && v < vol[small] {
			small = c
		}
	}
	return big, small
}

// TestQlangClippedEstimateFlipsToPushdown pins the planner's window
// estimate: a head publisher country whose whole-table row count exceeds
// the pushdown threshold's share of a one-quarter window, but whose rows
// inside the window do not, is pushed down — an estimate from the whole
// bitmap would have scanned — and the pushed-down answer still equals the
// naive evaluator's at every layout.
func TestQlangClippedEstimateFlipsToPushdown(t *testing.T) {
	db := windowWorld(t)
	layouts := windowLayouts(t, db)
	countries := presentCountries(db)
	const threshold = 0.20 // queries.pushdownThreshold
	type pick struct {
		country  string
		q        int
		inWindow int64
	}
	var best pick
	for q := 1; q+1 < db.NumQuarters(); q++ {
		lo, hi := db.QuarterMentionRange(q)
		window := float64(hi - lo)
		for _, c := range countries {
			bm := db.CountryRowBitmap(gdelt.CountryIndex(c))
			var in int64
			for r := lo; r < hi; r++ {
				if db.SourceCountry[db.Mentions.Source[r]] == int32(gdelt.CountryIndex(c)) {
					in++
				}
			}
			if float64(bm.Cardinality()) > threshold*window && float64(in) <= threshold*window && in > best.inWindow {
				best = pick{c, q, in}
			}
		}
	}
	if best.inWindow == 0 {
		t.Fatal("no country flips from scan to pushdown under a one-quarter window")
	}
	lo, hi := db.QuarterMentionRange(best.q)
	from, to := db.Mentions.Interval[lo], db.Mentions.Interval[hi]
	e := engine.New(db).WithInterval(from, to)
	for _, c := range []adhocCase{
		{"sourcecountry=" + best.country, "", "count"},
		{"sourcecountry=" + best.country + " and tone<0", "", "count"},
		{"sourcecountry=" + best.country + " and delay>2", "quarter", "mean:tone"},
		{"sourcecountry=" + best.country, "source", "count"},
	} {
		spec, err := queries.ParseAdhocSpec(c.where, c.group, c.agg, queries.DefaultAdhocK)
		if err != nil {
			t.Fatal(err)
		}
		if p := queries.ExplainAdhoc(e, spec); p.Path != "pushdown" || p.EstRows != best.inWindow {
			t.Errorf("%q over %s: plan %s est_rows %d, want pushdown over the window's %d rows",
				c.where, db.QuarterLabel(best.q), p.Path, p.EstRows, best.inWindow)
		}
		t.Run(c.where+"/"+c.group, func(t *testing.T) {
			checkWindowedCase(t, db, layouts, c, from, to)
		})
	}
}

// TestQlangWindowedQuarterCounts checks residual-free group=quarter counts,
// which the planner answers from the quarter row offsets clipped to the
// window: the plain series, range-narrowed ones, and windows that cut
// quarters, hold one quarter exactly, are empty or span the archive.
func TestQlangWindowedQuarterCounts(t *testing.T) {
	db := windowWorld(t)
	layouts := windowLayouts(t, db)
	nq := db.NumQuarters()
	qStart := func(q int) int32 {
		lo, _ := db.QuarterMentionRange(q)
		return db.Mentions.Interval[lo]
	}
	n := db.Meta.Intervals
	cases := []adhocCase{
		{"", "quarter", "count"},
		{"quarter>=" + db.QuarterLabel(3), "quarter", "count"},
		{"quarter<" + db.QuarterLabel(nq-2), "quarter", "count"},
		{"interval<" + strconv.Itoa(int(n)*2/3), "quarter", "count"},
	}
	windows := [][2]int32{
		{0, n},
		{qStart(2) + 37, qStart(5) + 11},
		{qStart(4), qStart(5)},
		{n / 3, n / 3},
		{qStart(nq-1) + 5, n + 100},
	}
	for wi, win := range windows {
		for ci, c := range cases {
			spec, err := queries.ParseAdhocSpec(c.where, c.group, c.agg, queries.DefaultAdhocK)
			if err != nil {
				t.Fatal(err)
			}
			for k, sdb := range layouts {
				v := sdb.View().WithWindow(win[0], win[1])
				if p := v.AdhocExplain(spec); p.Kernel != "QuarterOffsets" {
					t.Errorf("K%d %q window %v: kernel %s, want QuarterOffsets", k, c.where, win, p.Kernel)
				}
			}
			t.Run(fmt.Sprintf("win%d/case%d", wi, ci), func(t *testing.T) {
				checkWindowedCase(t, db, layouts, c, win[0], win[1])
			})
		}
	}
}
