package baseline

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"gdeltmine/internal/engine"
	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/obs"
	"gdeltmine/internal/qlang"
	"gdeltmine/internal/queries"
	"gdeltmine/internal/shard"
	"gdeltmine/internal/store"
)

// qlang pushdown differential battery (DESIGN.md §13): whichever path the
// planner resolves — bitmap pushdown, range-narrowed scan or closure scan —
// must agree with an independent naive per-row evaluator written right here
// against the raw columns — no engine, no qlang.Filter, no bitmaps — and
// every world's cases must reach all three paths. Randomized expressions
// over every field and operator run on the two seeded worlds, workers
// {1,4}, full and windowed views, and against time-sharded splits K∈{1,4}.
// Integer aggregates are exact; float sums allow the usual 1e-9 merge-order
// tolerance at workers>1.

// adhocCase is one randomized where/group/agg triple.
type adhocCase struct{ where, group, agg string }

// presentCountries collects the FIPS codes that actually appear in the
// world, so random country clauses hit non-empty bitmaps most of the time.
func presentCountries(db *store.DB) []string {
	seen := map[int32]bool{}
	for _, c := range db.SourceCountry {
		if c >= 0 {
			seen[c] = true
		}
	}
	ne := db.Events.Len()
	for e := 0; e < ne; e++ {
		if c := db.Events.Country[e]; c >= 0 {
			seen[c] = true
		}
	}
	var out []string
	for c := range seen {
		out = append(out, gdelt.Countries[c].FIPS)
	}
	sort.Strings(out)
	return out
}

// randomAdhocCases generates n seeded random cases spanning every clause
// class: bitmap equalities (source, countries), range comparisons
// (interval, quarter) and residual comparisons (tone, delay, doclen,
// confidence, articles), 1–4 clauses each, crossed with every group field
// and aggregate kind.
func randomAdhocCases(db *store.DB, seed int64, n int) []adhocCase {
	rng := rand.New(rand.NewSource(seed))
	ops := []string{"=", "!=", "<", "<=", ">", ">="}
	rangeOps := []string{"=", "<", "<=", ">", ">="}
	eqOps := []string{"=", "!="}
	countries := presentCountries(db)
	clause := func() string {
		switch rng.Intn(9) {
		case 0:
			return "delay" + ops[rng.Intn(len(ops))] + strconv.Itoa(rng.Intn(200))
		case 1:
			return "doclen" + ops[rng.Intn(len(ops))] + strconv.Itoa(rng.Intn(3000))
		case 2:
			return "confidence" + ops[rng.Intn(len(ops))] + strconv.Itoa(rng.Intn(101))
		case 3:
			return "articles" + ops[rng.Intn(len(ops))] + strconv.Itoa(rng.Intn(40))
		case 4:
			return fmt.Sprintf("tone%s%.1f", ops[rng.Intn(len(ops))], rng.Float64()*20-10)
		case 5:
			return "interval" + rangeOps[rng.Intn(len(rangeOps))] +
				strconv.Itoa(rng.Intn(int(db.Meta.Intervals)+1))
		case 6:
			q := rng.Intn(db.NumQuarters())
			return "quarter" + rangeOps[rng.Intn(len(rangeOps))] + db.QuarterLabel(q)
		case 7:
			s := db.Sources.Name(int32(rng.Intn(db.Sources.Len())))
			return "source" + eqOps[rng.Intn(len(eqOps))] + s
		default:
			return "sourcecountry" + eqOps[rng.Intn(len(eqOps))] + countries[rng.Intn(len(countries))]
		}
	}
	groups := []string{"", "source", "sourcecountry", "eventcountry", "quarter"}
	aggs := []string{"count", "count", "sum:doclen", "mean:tone", "sum:articles", "mean:delay"}
	cases := make([]adhocCase, 0, n+12)
	for i := 0; i < n; i++ {
		where := clause()
		for j := rng.Intn(3); j > 0; j-- {
			where += " and " + clause()
		}
		cases = append(cases, adhocCase{where, groups[rng.Intn(len(groups))], aggs[rng.Intn(len(aggs))]})
	}
	// Fixed edges: the empty expression, an eventcountry bitmap clause with
	// a value aggregate, and the source= pushdown cases.
	cases = append(cases,
		adhocCase{"", "quarter", "sum:doclen"},
		adhocCase{"eventcountry=" + countries[0] + " and tone>0", "source", "mean:tone"})
	return append(cases, sourceEdgeCases(db, countries)...)
}

// sourceEdgeCases are the fixed cases of a source= clause, which the
// planner answers from the source's postings: alone, intersected with a
// sourcecountry= and an eventcountry= bitmap, narrowed by a quarter range,
// an unseen source, and the busiest source with no mention in some part of
// a K=4 split (equal interval quarters, as shard.Split cuts).
func sourceEdgeCases(db *store.DB, countries []string) []adhocCase {
	ids := make([]int32, db.Sources.Len())
	for s := range ids {
		ids[s] = int32(s)
	}
	volume := func(s int32) int { return len(db.SourceMentions(s)) }
	sort.SliceStable(ids, func(a, b int) bool { return volume(ids[a]) < volume(ids[b]) })
	src := ids[len(ids)/2] // the median-volume source: selective enough to push down
	rows := db.SourceMentions(src)
	fips := func(c int32) string {
		if c < 0 {
			return countries[0]
		}
		return gdelt.Countries[c].FIPS
	}
	srcCtry := fips(db.SourceCountry[src])
	evCtry := fips(db.Events.Country[db.Mentions.EventRow[rows[0]]])
	quarter := db.QuarterLabel(db.QuarterOfInterval(db.Mentions.Interval[rows[len(rows)/2]]))
	name := "source=" + db.Sources.Name(src)

	n := int(db.Meta.Intervals)
	absent := ""
	for i := len(ids) - 1; i >= 0 && absent == ""; i-- {
		var parts [4]bool
		for _, r := range db.SourceMentions(ids[i]) {
			parts[int(db.Mentions.Interval[r])*4/n] = true
		}
		if parts != [4]bool{true, true, true, true} {
			absent = "source=" + db.Sources.Name(ids[i])
		}
	}
	return []adhocCase{
		{name, "", "count"},
		{name, "quarter", "sum:doclen"},
		{name + " and sourcecountry=" + srcCtry, "eventcountry", "count"},
		{name + " and eventcountry=" + evCtry, "", "mean:tone"},
		{name + " and quarter=" + quarter, "source", "count"},
		{name + " and quarter>=" + quarter + " and delay>2", "sourcecountry", "mean:delay"},
		{"source=unseen.example", "source", "count"},
		{"source=unseen.example and sourcecountry=" + srcCtry, "", "sum:articles"},
		{absent, "quarter", "count"},
		{absent + " and sourcecountry=" + srcCtry, "source", "mean:tone"},
	}
}

// naiveAdhoc is the independent reference: a single sequential pass over
// the raw mention columns, evaluating every clause per row with local
// comparison helpers. It shares no code with qlang.Filter, the bitmaps or
// the kernels.
func naiveAdhoc(db *store.DB, spec queries.AdhocSpec, ivLo, ivHi int32) queries.AdhocVec {
	cmpI := func(a, b int64, op qlang.Op) bool {
		switch op {
		case qlang.OpEq:
			return a == b
		case qlang.OpNe:
			return a != b
		case qlang.OpLt:
			return a < b
		case qlang.OpLe:
			return a <= b
		case qlang.OpGt:
			return a > b
		default:
			return a >= b
		}
	}
	match := func(row int) bool {
		for _, c := range spec.Expr.Clauses {
			var ok bool
			switch c.Field {
			case "delay":
				ok = cmpI(int64(db.Mentions.Delay[row]), c.Value.Int, c.Op)
			case "interval":
				ok = cmpI(int64(db.Mentions.Interval[row]), c.Value.Int, c.Op)
			case "doclen":
				ok = cmpI(int64(db.Mentions.DocLen[row]), c.Value.Int, c.Op)
			case "confidence":
				ok = cmpI(int64(db.Mentions.Confidence[row]), c.Value.Int, c.Op)
			case "articles":
				ok = cmpI(int64(db.Events.NumArticles[db.Mentions.EventRow[row]]), c.Value.Int, c.Op)
			case "tone":
				a, b := float64(db.Mentions.Tone[row]), c.Value.Float
				switch c.Op {
				case qlang.OpEq:
					ok = a == b
				case qlang.OpNe:
					ok = a != b
				case qlang.OpLt:
					ok = a < b
				case qlang.OpLe:
					ok = a <= b
				case qlang.OpGt:
					ok = a > b
				default:
					ok = a >= b
				}
			case "quarter":
				q := db.QuarterOfInterval(db.Mentions.Interval[row])
				ok = cmpI(int64(q), int64(qlang.QuarterIndex(db, c.Value)), c.Op)
			case "source":
				ok = (db.Sources.Name(db.Mentions.Source[row]) == c.Value.Str) == (c.Op == qlang.OpEq)
			case "sourcecountry":
				want := int32(gdelt.CountryIndex(c.Value.Str))
				ok = (db.SourceCountry[db.Mentions.Source[row]] == want) == (c.Op == qlang.OpEq)
			case "eventcountry":
				want := int32(gdelt.CountryIndex(c.Value.Str))
				ok = (db.Events.Country[db.Mentions.EventRow[row]] == want) == (c.Op == qlang.OpEq)
			}
			if !ok {
				return false
			}
		}
		return true
	}
	groupOf := func(row int) int {
		switch spec.Group {
		case "source":
			return int(db.Mentions.Source[row])
		case "sourcecountry":
			return int(db.SourceCountry[db.Mentions.Source[row]])
		case "eventcountry":
			return int(db.Events.Country[db.Mentions.EventRow[row]])
		case "quarter":
			return db.QuarterOfInterval(db.Mentions.Interval[row])
		}
		return -1
	}
	var val func(row int) float64
	switch spec.Agg.Field {
	case "delay":
		val = func(row int) float64 { return float64(db.Mentions.Delay[row]) }
	case "doclen":
		val = func(row int) float64 { return float64(db.Mentions.DocLen[row]) }
	case "tone":
		val = func(row int) float64 { return float64(db.Mentions.Tone[row]) }
	case "confidence":
		val = func(row int) float64 { return float64(db.Mentions.Confidence[row]) }
	case "articles":
		val = func(row int) float64 { return float64(db.Events.NumArticles[db.Mentions.EventRow[row]]) }
	}
	grouped := spec.Group != ""
	var vec queries.AdhocVec
	var n int
	switch spec.Group {
	case "source":
		n = db.Sources.Len()
	case "sourcecountry", "eventcountry":
		n = len(gdelt.Countries)
	case "quarter":
		n = db.NumQuarters()
	}
	if grouped {
		vec.Counts = make([]int64, n)
		if val != nil {
			vec.Sums = make([]float64, n)
		}
	}
	nm := db.Mentions.Len()
	for row := 0; row < nm; row++ {
		if iv := db.Mentions.Interval[row]; iv < ivLo || iv >= ivHi {
			continue
		}
		if !match(row) {
			continue
		}
		vec.Count++
		var v float64
		if val != nil {
			v = val(row)
			vec.Sum += v
		}
		if grouped {
			if g := groupOf(row); g >= 0 && g < n {
				vec.Counts[g]++
				if val != nil {
					vec.Sums[g] += v
				}
			}
		}
	}
	return vec
}

// eqAdhocVec compares the comparable fields of two vectors: counts exactly,
// sums with the float merge tolerance. The scalar Sum only participates for
// ungrouped value aggregates — the grouped engine paths do not fill it.
func eqAdhocVec(t *testing.T, spec queries.AdhocSpec, got, want queries.AdhocVec, workers int) {
	t.Helper()
	if got.Count != want.Count {
		t.Errorf("count: got %d, want %d", got.Count, want.Count)
	}
	if spec.Group == "" {
		if spec.Agg.Kind != qlang.AggCount {
			eqFloats(t, "sum", []float64{got.Sum}, []float64{want.Sum}, workers)
		}
		return
	}
	eqSeries(t, "group counts", got.Counts, want.Counts)
	if spec.Agg.Kind != qlang.AggCount {
		eqFloats(t, "group sums", got.Sums, want.Sums, workers)
	}
}

// retiredAdhocPlans names the plan modes the query kind could once be
// forced into. Every name now runs the planner's own choice; the repeated
// executions re-draw pooled accumulators, so a buffer that comes back dirty
// fails here. Closure-path coverage comes from the planner itself:
// checkPathCoverage asserts each world's cases resolve to every path.
var retiredAdhocPlans = []string{"auto", "rows", "scan"}

// checkPathCoverage fails unless the planner resolved the cases to each of
// the pushdown, range and scan paths at least once.
func checkPathCoverage(t *testing.T, world int, paths map[string]bool) {
	t.Helper()
	for _, p := range []string{"pushdown", "range", "scan"} {
		if !paths[p] {
			t.Errorf("world%d: no case resolves to the %s path (got %v)", world, p, paths)
		}
	}
}

func TestQlangDifferentialMonolith(t *testing.T) {
	for seedIdx, db := range kernelWorlds(t) {
		n := db.Meta.Intervals
		windows := map[string][2]int32{
			"full":   {0, n},
			"window": {n / 4, 3 * n / 4},
		}
		paths := map[string]bool{}
		for ci, c := range randomAdhocCases(db, int64(seedIdx)*977+13, 16) {
			spec, err := queries.ParseAdhocSpec(c.where, c.group, c.agg, queries.DefaultAdhocK)
			if err != nil {
				t.Fatalf("case %d %q: %v", ci, c.where, err)
			}
			for viewName, win := range windows {
				want := naiveAdhoc(db, spec, win[0], win[1])
				for _, w := range differentialWorkers {
					e := engine.New(db).WithWorkers(w).WithInterval(win[0], win[1])
					paths[queries.ExplainAdhoc(e, spec).Path] = true
					for _, plan := range retiredAdhocPlans {
						name := fmt.Sprintf("world%d/case%d/%s/w%d/%s", seedIdx, ci, viewName, w, plan)
						t.Run(name, func(t *testing.T) {
							got, err := queries.AdhocVectors(e, spec)
							if err != nil {
								t.Fatalf("%q: %v", c.where, err)
							}
							if t.Failed() {
								return
							}
							eqAdhocVec(t, spec, got, want, w)
							if t.Failed() {
								t.Logf("where=%q group=%q agg=%q", c.where, c.group, c.agg)
							}
						})
					}
				}
			}
		}
		checkPathCoverage(t, seedIdx, paths)
	}
}

// naiveAdhocKey resolves naive group ids to the display keys the served
// result carries.
func naiveAdhocKey(db *store.DB, group string) func(g int) string {
	switch group {
	case "source":
		return func(g int) string { return db.Sources.Name(int32(g)) }
	case "quarter":
		return db.QuarterLabel
	}
	return func(g int) string { return gdelt.Countries[g].FIPS }
}

func TestQlangDifferentialSharded(t *testing.T) {
	for seedIdx, db := range kernelWorlds(t) {
		cases := randomAdhocCases(db, int64(seedIdx)*1511+7, 8)
		paths := map[string]bool{}
		for _, k := range []int{1, 4} {
			sdb, err := shard.Split(db, k)
			if err != nil {
				t.Fatalf("Split(%d): %v", k, err)
			}
			for ci, c := range cases {
				spec, err := queries.ParseAdhocSpec(c.where, c.group, c.agg, queries.DefaultAdhocK)
				if err != nil {
					t.Fatalf("case %d %q: %v", ci, c.where, err)
				}
				paths[sdb.View().AdhocExplain(spec).Path] = true
				ref := queries.ShapeAdhoc(spec, naiveAdhoc(db, spec, 0, db.Meta.Intervals),
					naiveAdhocKey(db, spec.Group))
				refTree := jsonTree(t, ref)
				for _, w := range differentialWorkers {
					for _, plan := range retiredAdhocPlans {
						name := fmt.Sprintf("world%d/K%d/case%d/w%d/%s", seedIdx, k, ci, w, plan)
						t.Run(name, func(t *testing.T) {
							got, err := sdb.View().WithWorkers(w).AdhocQuery(spec)
							if err != nil {
								t.Fatalf("%q: %v", c.where, err)
							}
							if err := eqTree("result", jsonTree(t, got), refTree); err != nil {
								t.Errorf("where=%q group=%q agg=%q: %v", c.where, c.group, c.agg, err)
							}
						})
					}
				}
			}
		}
	}
}

// TestQlangExplainDoesNotExecute pins the explain contract: the plan for a
// selective bitmap expression reports the pushdown path with its clauses
// split correctly, and asking for it runs no aggregation (the obs counters
// only move on execution, and explain leaves them alone).
func TestQlangExplainDoesNotExecute(t *testing.T) {
	db := kernelWorlds(t)[0]
	countries := presentCountries(db)
	where := "sourcecountry=" + countries[0] + " and tone>0 and quarter>=" + db.QuarterLabel(0)
	spec, err := queries.ParseAdhocSpec(where, "source", "count", 5)
	if err != nil {
		t.Fatal(err)
	}
	plan := queries.ExplainAdhoc(engine.New(db), spec)
	if plan.Where != spec.Where {
		t.Errorf("plan.Where = %q, want canonical %q", plan.Where, spec.Where)
	}
	if len(plan.Pushdown)+len(plan.Fallback) != 3 {
		t.Errorf("plan splits %d+%d clauses, want 3 total (%+v)",
			len(plan.Pushdown), len(plan.Fallback), plan)
	}
	if plan.WindowRows <= 0 || plan.EstRows < 0 || plan.EstRows > plan.WindowRows {
		t.Errorf("plan row estimates out of range: %+v", plan)
	}
	if plan.Selectivity < 0 || plan.Selectivity > 1 {
		t.Errorf("plan selectivity %v out of [0,1]", plan.Selectivity)
	}
	if plan.Path != "pushdown" && plan.Path != "range" && plan.Path != "scan" {
		t.Errorf("plan path %q unknown", plan.Path)
	}
}

// TestQlangFusedScanMetrics pins the fused fold's scan accounting: a
// grouped mean with a residual clause on a K=4 split runs one window scan
// per shard — it used to run three (count, group counts, sums) — and
// engine_rows_scanned_total moves by the window's rows once, full and
// windowed.
func TestQlangFusedScanMetrics(t *testing.T) {
	db := kernelWorlds(t)[0]
	sdb, err := shard.Split(db, 4)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := queries.ParseAdhocSpec("tone<0", "sourcecountry", "mean:tone", 5)
	if err != nil {
		t.Fatal(err)
	}
	scans := obs.Default.Counter("engine_scans_total", "scan kernels executed", obs.L("kind", "query"))
	rows := obs.Default.Counter("engine_rows_scanned_total",
		"table rows actually touched by scan kernels", obs.L("kind", "query"))
	n := db.Meta.Intervals
	for _, win := range [][2]int32{{0, n}, {n / 3, 2 * n / 3}} {
		v := sdb.View().WithKind("query").WithWindow(win[0], win[1])
		if p := v.AdhocExplain(spec); p.Path != "scan" || p.Kernel != "SelectFold" {
			t.Fatalf("window %v: plan %s/%s, want scan/SelectFold", win, p.Path, p.Kernel)
		}
		lo, hi := db.MentionRowRange(win[0], win[1])
		s0, r0 := scans.Value(), rows.Value()
		if _, err := v.AdhocQuery(spec); err != nil {
			t.Fatal(err)
		}
		if d := scans.Value() - s0; d != int64(sdb.K()) {
			t.Errorf("window %v: %d scans, want one per shard (%d)", win, d, sdb.K())
		}
		if d := rows.Value() - r0; d != hi-lo {
			t.Errorf("window %v: %d rows scanned, want the window's %d", win, d, hi-lo)
		}
	}
}
