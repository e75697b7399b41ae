package baseline

import (
	"slices"
	"testing"
	"time"

	"gdeltmine/internal/convert"
	"gdeltmine/internal/engine"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/registry"
	"gdeltmine/internal/shard"
)

// BenchmarkSingleVsEngine times every kind's cold execution two ways on the
// Bench preset, GKG included: Descriptor.Run on the monolith's engine (the
// library path) and Descriptor.RunSharded on shard.Single of the same store
// (what a server runs for a plain .gdmb). The two alternate inside one loop,
// so machine drift hits both, and each reports its median: engine-µs,
// single-µs and their ratio, which must stay near 1 or below — a served
// monolith pays for no second, slower copy of the kernels.
//
//	go test ./internal/baseline -run '^$' -bench SingleVsEngine -benchtime 31x
func BenchmarkSingleVsEngine(b *testing.B) {
	c, err := gen.Generate(gen.Bench())
	if err != nil {
		b.Fatal(err)
	}
	res, err := convert.FromCorpus(c)
	if err != nil {
		b.Fatal(err)
	}
	db := res.DB
	sdb, err := shard.Single(db)
	if err != nil {
		b.Fatal(err)
	}
	median := func(d []time.Duration) float64 {
		slices.Sort(d)
		return float64(d[len(d)/2]) / float64(time.Microsecond)
	}
	theme := themeParam(b, db)
	for _, d := range registry.All() {
		p, err := d.ParseParams(func(name string) []string {
			if name == "theme" {
				return []string{theme}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(d.Kind, func(b *testing.B) {
			eng, single := make([]time.Duration, b.N), make([]time.Duration, b.N)
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				if _, err := d.Run(engine.New(db).WithKind(d.Kind), p); err != nil {
					b.Fatal(err)
				}
				t1 := time.Now()
				if _, err := d.RunSharded(sdb.View().WithKind(d.Kind), p); err != nil {
					b.Fatal(err)
				}
				eng[i], single[i] = t1.Sub(t0), time.Since(t1)
			}
			e, s := median(eng), median(single)
			b.ReportMetric(e, "engine-µs")
			b.ReportMetric(s, "single-µs")
			b.ReportMetric(s/e, "single/engine")
		})
	}
}
