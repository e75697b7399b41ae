package shard_test

import (
	"fmt"
	"testing"

	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/obs"
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

// BenchmarkLogSeal times Log.Seal on a durable log over the same world,
// grown by daily seals to K ≈ 50 and K ≈ 200 parts. Before each timed seal
// a day of feed ticks and a mention of an event only the oldest part holds
// go in untimed, so every seal follows a tick that changed a sealed part's
// metadata. Reports ns and written bytes (part files and manifest) per seal.
func BenchmarkLogSeal(b *testing.B) {
	c, err := gen.Generate(gen.Bench())
	if err != nil {
		b.Fatal(err)
	}
	intervals := int32(c.World.Days() * gdelt.IntervalsPerDay)
	cut := intervals - 720*gdelt.IntervalsPerDay
	base, ticks := feedWorld(b, c, cut)
	for _, k := range []int{50, 200} {
		b.Run(fmt.Sprintf("K%d", k), func(b *testing.B) {
			sdb, err := shard.SplitAt(base, []int32{0, cut / 3, 2 * cut / 3, cut, intervals})
			if err != nil {
				b.Fatal(err)
			}
			lg, err := shard.CreateLog(b.TempDir(), sdb)
			if err != nil {
				b.Fatal(err)
			}
			next := 0
			day := func() {
				for lg.TailSpan() < gdelt.IntervalsPerDay {
					if next >= len(ticks) {
						b.Fatal("out of ticks")
					}
					if _, err := lg.Append(ticks[next].evs, ticks[next].mns); err != nil {
						b.Fatal(err)
					}
					next++
				}
				s := lg.Snapshot()
				last := s.Tail().Mentions.Interval[s.Tail().Mentions.Len()-1]
				if _, err := lg.Append(nil, []gdelt.Mention{oldEventMention(b, c, s, last)}); err != nil {
					b.Fatal(err)
				}
			}
			seal := func() {
				if sealed, err := lg.Seal(); err != nil || !sealed {
					b.Fatalf("seal: (%v, %v)", sealed, err)
				}
			}
			for lg.Snapshot().K() < k {
				day()
				seal()
			}
			written := func() float64 {
				return obs.Default.Snapshot().Find("shard_log_seal_written_bytes_total").Value
			}
			w0 := written()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				day()
				b.StartTimer()
				seal()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/seal")
			b.ReportMetric((written()-w0)/float64(b.N), "written-B/seal")
		})
	}
}
