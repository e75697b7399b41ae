package queries

import (
	"math/bits"

	"gdeltmine/internal/engine"
	"gdeltmine/internal/matrix"
	"gdeltmine/internal/parallel"
)

// CountryReport is the output of the single aggregated country query of
// Section VI-G — the query whose parallel scaling Figure 12 reports. One run
// produces all the data behind Tables V, VI and VII.
type CountryReport struct {
	// EventCounts[c] = number of observed events located in country c.
	EventCounts []int64
	// ArticleCounts[c] = number of articles published by sources of
	// country c (about events with a known country).
	ArticleCounts []int64
	// CoReporting is the Table V matrix: the Jaccard index between the
	// sets of events reported by each country's press.
	CoReporting *matrix.Dense
	// Cross is the Table VI matrix: Cross[reported][publishing] = articles
	// from the publishing country about events in the reported country.
	Cross *matrix.Int64
	// Fractions is the Table VII matrix: Cross normalized per publishing
	// country (percent of that country's tagged-event articles).
	Fractions *matrix.Dense
	// TopReported / TopPublishing order countries by events recorded and
	// articles published, respectively.
	TopReported   []int
	TopPublishing []int
}

// CountryQuery runs the aggregated country query. Internally it is two
// parallel aggregation passes: a mention scan building the cross-reporting
// contingency matrix, and an event scan building per-event country bitmasks
// for the co-reporting Jaccard counts.
func CountryQuery(e *engine.Engine) (*CountryReport, error) {
	db := e.DB()
	nc := countryCount

	// Pass 1: cross-reporting over mentions (Table VI), as a typed kernel:
	// row country = Events.Country[EventRow[row]], column country =
	// SourceCountry[Source[row]], untagged (-1) rows skipped by the
	// kernel's range check.
	cross := e.CrossCountRemap(nc, nc,
		db.Mentions.EventRow, db.Events.Country,
		db.Mentions.Source, db.SourceCountry)

	// Pass 2: per-event reporting-country bitmask over events (Table V).
	type partial struct {
		pair   *matrix.Int64
		counts []int64
	}
	res := parallel.MapReduce(db.Events.Len(), e.ScanOptions(),
		func() *partial {
			return &partial{
				pair:   &matrix.Int64{Rows: nc, Cols: nc, Data: parallel.GetInt64(nc * nc)},
				counts: parallel.GetInt64(nc),
			}
		},
		func(acc *partial, lo, hi int) *partial {
			for ev := lo; ev < hi; ev++ {
				var mask uint64
				for _, s := range db.EventMentionSources(int32(ev)) {
					if c := db.SourceCountry[s]; c >= 0 {
						mask |= 1 << uint(c)
					}
				}
				for m := mask; m != 0; {
					i := bits.TrailingZeros64(m)
					m &^= 1 << uint(i)
					acc.counts[i]++
					for m2 := m; m2 != 0; {
						j := bits.TrailingZeros64(m2)
						m2 &^= 1 << uint(j)
						acc.pair.Inc(i, j)
						acc.pair.Inc(j, i)
					}
				}
			}
			return acc
		},
		func(dst, src *partial) *partial {
			if err := dst.pair.AddMatrix(src.pair); err != nil {
				panic(err)
			}
			for i, v := range src.counts {
				dst.counts[i] += v
			}
			parallel.PutInt64(src.pair.Data)
			parallel.PutInt64(src.counts)
			src.pair.Data, src.counts = nil, nil
			return dst
		},
	)

	eventCounts := e.GroupCountEventsCol(nc, db.Events.Country, nil,
		engine.PredGT(db.Events.NumArticles, 0))
	return FinishCountryReport(cross, res.pair, res.counts, eventCounts)
}

// FinishCountryReport derives the report's orderings and normalizations
// from the raw aggregates: the mention cross-count matrix, the per-event
// country pair counts and singleton counts, and the per-country event
// counts. Shared by the monolithic and sharded executions so both take
// the exact same arithmetic path.
func FinishCountryReport(cross, pair *matrix.Int64, counts, eventCounts []int64) (*CountryReport, error) {
	nc := countryCount
	jac, err := matrix.JaccardFromPairCounts(pair, counts)
	if err != nil {
		return nil, err
	}
	articleCounts := cross.ToDense().ColSums()
	artInts := make([]int64, nc)
	for c, v := range articleCounts {
		artInts[c] = int64(v)
	}
	fractions := matrix.NewDense(nc, nc)
	for r := 0; r < nc; r++ {
		for c := 0; c < nc; c++ {
			if artInts[c] > 0 {
				fractions.Set(r, c, 100*float64(cross.At(r, c))/float64(artInts[c]))
			}
		}
	}
	return &CountryReport{
		EventCounts:   eventCounts,
		ArticleCounts: artInts,
		CoReporting:   jac,
		Cross:         cross,
		Fractions:     fractions,
		TopReported:   engine.TopK(eventCounts, nc),
		TopPublishing: engine.TopK(artInts, nc),
	}, nil
}
