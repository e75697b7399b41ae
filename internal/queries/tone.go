package queries

import (
	"gdeltmine/internal/engine"
	"gdeltmine/internal/gdelt"
)

// ToneSeries is a per-quarter average-tone series for one publishing
// country, the GCAM-style sentiment view GDELT 2.0 carries alongside every
// article (Section III). Quarters without articles hold NaN-free zeros and
// a zero count.
type ToneSeries struct {
	Country string // FIPS code
	Labels  []string
	Average []float64
	Count   []int64
}

// ToneByCountry computes the quarterly average document tone of each listed
// publishing country's press. Each known country is one ad-hoc plan,
// "where sourcecountry=<fips> group=quarter agg=sum:tone", the path the
// server runs for the same query.
func ToneByCountry(e *engine.Engine, fips []string) []ToneSeries {
	nq := e.DB().NumQuarters()
	labels := quarterLabels(e)
	out := make([]ToneSeries, len(fips))
	for i, f := range fips {
		out[i] = ToneSeries{
			Country: f,
			Labels:  labels,
			Average: make([]float64, nq),
			Count:   make([]int64, nq),
		}
		if gdelt.CountryIndex(f) < 0 {
			continue
		}
		// A known country code always parses and binds; only a cancelled
		// engine context fails, and then the series stays zero.
		spec, err := ParseAdhocSpec("sourcecountry="+f, "quarter", "sum:tone", 0)
		if err != nil {
			continue
		}
		vec, err := AdhocVectors(e, spec)
		if err != nil {
			continue
		}
		for q, n := range vec.Counts {
			out[i].Count[q] = n
			if n > 0 {
				out[i].Average[q] = vec.Sums[q] / float64(n)
			}
		}
	}
	return out
}
