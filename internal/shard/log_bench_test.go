package shard_test

import (
	"testing"

	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/shard"
)

// BenchmarkLogAppend is the developer loop for the append path: the
// live.ingest shape (gen.Bench world, three base parts, an empty tail from
// the cut on, a seal at the compactor's one-day age threshold) with
// nothing but Log.Append inside the timer.
func BenchmarkLogAppend(b *testing.B) {
	c, err := gen.Generate(gen.Bench())
	if err != nil {
		b.Fatal(err)
	}
	intervals := int32(c.World.Days() * gdelt.IntervalsPerDay)
	cut := intervals - 720*gdelt.IntervalsPerDay
	base, ticks := feedWorld(b, c, cut)
	sdb, err := shard.SplitAt(base, []int32{0, cut / 3, 2 * cut / 3, cut, intervals})
	if err != nil {
		b.Fatal(err)
	}
	lg := shard.NewLog(sdb)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i >= len(ticks) {
			b.Fatalf("out of ticks at %d; lower -benchtime", i)
		}
		if _, err := lg.Append(ticks[i].evs, ticks[i].mns); err != nil {
			b.Fatal(err)
		}
		if lg.TailSpan() >= gdelt.IntervalsPerDay {
			b.StopTimer()
			if _, err := lg.Seal(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}
