package baseline

import (
	"fmt"
	"math/rand"
	"testing"

	"gdeltmine/internal/convert"
	"gdeltmine/internal/engine"
	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/queries"
	"gdeltmine/internal/store"
)

// Kernel-level differential harness: every typed (vectorized) kernel and
// every postings-pruned execution path is pinned against the generic
// closure kernel it replaces, on the two seeded worlds at workers 1 and 4,
// over both the full table and a proper interval window. Integer kernels
// must agree bit-for-bit at any worker count. Float kernels must agree
// bit-for-bit at workers=1 (one partial, one fold order) and within 1e-9
// relative tolerance at workers=4, where dynamic scheduling permutes the
// merge order of float64 partials.

func kernelWorlds(t *testing.T) []*store.DB {
	t.Helper()
	var dbs []*store.DB
	for _, cfg := range differentialConfigs() {
		c, err := gen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := convert.FromCorpus(c)
		if err != nil {
			t.Fatal(err)
		}
		dbs = append(dbs, res.DB)
	}
	return dbs
}

// kernelViews returns the engine views a kernel is pinned on: the full
// table and a window covering the middle half of the archive.
func kernelViews(db *store.DB, w int) map[string]*engine.Engine {
	base := engine.New(db).WithWorkers(w)
	n := db.Meta.Intervals
	return map[string]*engine.Engine{
		"full":   base,
		"window": base.WithInterval(n/4, 3*n/4),
	}
}

func eqFloats(t *testing.T, kind string, got, want []float64, workers int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, reference %d", kind, len(got), len(want))
	}
	for i := range got {
		if workers == 1 {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: typed %v, closure %v (must be bit-equal at workers=1)", kind, i, got[i], want[i])
			}
			continue
		}
		d := got[i] - want[i]
		if d < 0 {
			d = -d
		}
		mag := want[i]
		if mag < 0 {
			mag = -mag
		}
		if mag < 1 {
			mag = 1
		}
		if d > 1e-9*mag {
			t.Errorf("%s[%d]: typed %v, closure %v", kind, i, got[i], want[i])
		}
	}
}

func TestKernelDifferentialTypedVsClosure(t *testing.T) {
	for seedIdx, db := range kernelWorlds(t) {
		nq := db.NumQuarters()
		ns := db.Sources.Len()
		nc := len(gdelt.Countries)
		for _, w := range differentialWorkers {
			for view, e := range kernelViews(db, w) {
				prefix := fmt.Sprintf("world%d/w%d/%s", seedIdx, w, view)

				t.Run(prefix+"/group-count", func(t *testing.T) {
					got := e.GroupCountCol(ns, db.Mentions.Source, nil)
					want := GroupCount(e, ns, func(row int) int { return int(db.Mentions.Source[row]) })
					eqSeries(t, "group-count source", got, want)
				})
				t.Run(prefix+"/group-count-remap", func(t *testing.T) {
					got := e.GroupCountCol(nq, db.Mentions.Interval, db.QuarterLUT())
					want := GroupCount(e, nq, func(row int) int {
						return db.QuarterOfInterval(db.Mentions.Interval[row])
					})
					eqSeries(t, "group-count quarter", got, want)
				})
				t.Run(prefix+"/group-count-sel", func(t *testing.T) {
					// The typed selected group-count is the slow-articles
					// plan now: a fused delay filter grouped by quarter.
					spec, err := queries.ParseAdhocSpec(queries.SlowWhere, "quarter", "", 0)
					if err != nil {
						t.Fatal(err)
					}
					vec, err := queries.AdhocVectors(e, spec)
					if err != nil {
						t.Fatal(err)
					}
					got := vec.Counts
					want := GroupCount(e, nq, func(row int) int {
						if db.Mentions.Delay[row] <= gdelt.IntervalsPerDay {
							return -1
						}
						return db.QuarterOfInterval(db.Mentions.Interval[row])
					})
					eqSeries(t, "group-count selected", got, want)
				})
				t.Run(prefix+"/group-count-events", func(t *testing.T) {
					got := e.GroupCountEventsCol(nq, db.Events.Interval, db.QuarterLUT(),
						engine.PredGT(db.Events.NumArticles, 0))
					want := GroupCountEvents(e, nq, func(row int) int {
						if db.Events.NumArticles[row] == 0 {
							return -1
						}
						return db.QuarterOfInterval(db.Events.Interval[row])
					})
					eqSeries(t, "group-count events", got, want)
				})
				t.Run(prefix+"/cross-count", func(t *testing.T) {
					got := e.CrossCountCols(nc, nc,
						db.Mentions.EventRow, db.EventCountryLUT(),
						db.Mentions.Source, db.SourceCountryLUT())
					want := CrossCount(e, nc, nc, func(row int) (int, int) {
						ev := db.Mentions.EventRow[row]
						return int(db.Events.Country[ev]), int(db.SourceCountry[db.Mentions.Source[row]])
					})
					eqSeries(t, "cross-count country", got.Data, want.Data)
					// The int16-remap instantiation (what CountryMatrix runs):
					// narrow store columns used directly as remap tables must
					// agree with the widened int32 LUTs.
					got16 := engine.CrossCountRemap(e, nc, nc,
						db.Mentions.EventRow, db.Events.Country,
						db.Mentions.Source, db.SourceCountry)
					eqSeries(t, "cross-count country int16 remap", got16.Data, want.Data)
				})
				t.Run(prefix+"/sum-by-group", func(t *testing.T) {
					// The per-group sum is CrossSumCols with one column:
					// an all-zero column remap folds every row into it,
					// and the row column goes through the nil-remap path.
					got := e.CrossSumCols(ns, 1, db.Mentions.Source, nil,
						db.Mentions.Source, make([]int32, ns), db.Mentions.Tone)
					want := SumByGroup(e, ns, func(row int) (int, float64) {
						return int(db.Mentions.Source[row]), float64(db.Mentions.Tone[row])
					})
					eqFloats(t, "sum-by-group tone", got, want, w)
				})
				t.Run(prefix+"/cross-sum", func(t *testing.T) {
					got := e.CrossSumCols(nc, nq,
						db.Mentions.Source, db.SourceCountryLUT(),
						db.Mentions.Interval, db.QuarterLUT(), db.Mentions.Tone)
					want := SumByGroup(e, nc*nq, func(row int) (int, float64) {
						c := db.SourceCountry[db.Mentions.Source[row]]
						if c < 0 {
							return -1, 0
						}
						q := db.QuarterOfInterval(db.Mentions.Interval[row])
						return int(c)*nq + q, float64(db.Mentions.Tone[row])
					})
					eqFloats(t, "cross-sum tone", got, want, w)
				})
			}
		}
	}
}

// TestKernelDifferentialPrunedReports pins the postings-pruned CoReport and
// FollowReport against their full-scan fallbacks: pair matrices, event
// counts, follow matrices and article totals must agree exactly.
func TestKernelDifferentialPrunedReports(t *testing.T) {
	for seedIdx, db := range kernelWorlds(t) {
		ids := rankSources(db)[:16]
		for _, w := range differentialWorkers {
			e := engine.New(db).WithWorkers(w)
			prefix := fmt.Sprintf("world%d/w%d", seedIdx, w)

			t.Run(prefix+"/coreport", func(t *testing.T) {
				got, err := queries.CoReport(e, ids)
				if err != nil {
					t.Fatal(err)
				}
				want, err := queries.CoReportScan(e, ids)
				if err != nil {
					t.Fatal(err)
				}
				eqSeries(t, "coreport pair", got.Pair.Data, want.Pair.Data)
				eqSeries(t, "coreport counts", got.EventCounts, want.EventCounts)
				eqFloats(t, "coreport jaccard", got.Jaccard.Data, want.Jaccard.Data, 1)
			})
			t.Run(prefix+"/follow", func(t *testing.T) {
				got := queries.FollowReport(e, ids)
				want := queries.FollowReportScan(e, ids)
				eqSeries(t, "follow N", got.N.Data, want.N.Data)
				eqSeries(t, "follow articles", got.Articles, want.Articles)
				eqFloats(t, "follow F", got.F.Data, want.F.Data, 1)
			})
		}
	}
}

// TestScanRowsRandomizedWindows is the fuzz-style gate for the row-list
// kernels: on seeded random interval windows and random source subsets, the
// pruned GroupCountRows/CrossCountRows over clipped postings must agree
// bit-for-bit with the closure kernel filtering the same membership over
// the full window.
func TestScanRowsRandomizedWindows(t *testing.T) {
	for seedIdx, db := range kernelWorlds(t) {
		rng := rand.New(rand.NewSource(int64(9000 + seedIdx)))
		nq := db.NumQuarters()
		ns := db.Sources.Len()
		nIv := db.Meta.Intervals
		for iter := 0; iter < 25; iter++ {
			// Random window, occasionally degenerate or full.
			a, b := rng.Int31n(nIv+1), rng.Int31n(nIv+1)
			if a > b {
				a, b = b, a
			}
			if iter == 0 {
				a, b = 0, nIv
			}
			// Random subset of sources, 1..24.
			k := 1 + rng.Intn(24)
			sources := make([]int32, 0, k)
			member := make(map[int32]bool, k)
			for len(sources) < k {
				s := rng.Int31n(int32(ns))
				if !member[s] {
					member[s] = true
					sources = append(sources, s)
				}
			}
			w := differentialWorkers[iter%len(differentialWorkers)]
			e := engine.New(db).WithWorkers(w).WithInterval(a, b)

			slot := make([]int32, ns)
			for i := range slot {
				slot[i] = -1
			}
			for i, s := range sources {
				slot[s] = int32(i)
			}
			var rows []int32
			for _, s := range sources {
				rows = append(rows, e.ClipRows(db.SourceMentions(s))...)
			}

			name := fmt.Sprintf("world%d/iter%d/w%d/[%d,%d)/k%d", seedIdx, iter, w, a, b, k)
			t.Run(name, func(t *testing.T) {
				got := e.GroupCountRows(k, rows, e.WindowSize(), db.Mentions.Source, slot)
				want := GroupCount(e, k, func(row int) int { return int(slot[db.Mentions.Source[row]]) })
				eqSeries(t, "pruned group-count", got, want)

				gotX := e.CrossCountRows(k, nq, rows, e.WindowSize(),
					db.Mentions.Source, slot, db.Mentions.Interval, db.QuarterLUT())
				wantX := CrossCount(e, k, nq, func(row int) (int, int) {
					i := slot[db.Mentions.Source[row]]
					if i < 0 {
						return -1, -1
					}
					return int(i), db.QuarterOfInterval(db.Mentions.Interval[row])
				})
				eqSeries(t, "pruned cross-count", gotX.Data, wantX.Data)

				gotS := engine.ScanRows(e, rows, e.WindowSize(),
					func() int64 { return 0 },
					func(acc int64, rows []int32) int64 { return acc + int64(len(rows)) },
					func(dst, src int64) int64 { return dst + src },
				)
				wantS := CountMentions(e, func(row int) bool { return slot[db.Mentions.Source[row]] >= 0 })
				if gotS != wantS {
					t.Errorf("pruned row count: %d, closure filter %d", gotS, wantS)
				}
			})
		}
	}
}
