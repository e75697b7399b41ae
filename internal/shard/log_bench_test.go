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

// sealGrower is a durable log over the live.ingest-shaped world and the
// feed ticks past its cut. day appends a day of ticks and then a mention of
// an event only the oldest part holds, so the next seal follows a tick that
// changed a sealed part's metadata; seal seals.
type sealGrower struct {
	b     *testing.B
	c     *gen.Corpus
	lg    *shard.Log
	ticks []feedTick
	next  int
}

func newSealGrower(b *testing.B) *sealGrower {
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
	lg, err := shard.CreateLog(b.TempDir(), sdb)
	if err != nil {
		b.Fatal(err)
	}
	return &sealGrower{b: b, c: c, lg: lg, ticks: ticks}
}

func (g *sealGrower) day() {
	for g.lg.TailSpan() < gdelt.IntervalsPerDay {
		if g.next >= len(g.ticks) {
			g.b.Fatal("out of ticks")
		}
		if _, err := g.lg.Append(g.ticks[g.next].evs, g.ticks[g.next].mns); err != nil {
			g.b.Fatal(err)
		}
		g.next++
	}
	s := g.lg.Snapshot()
	last := s.Tail().Mentions.Interval[s.Tail().Mentions.Len()-1]
	if _, err := g.lg.Append(nil, []gdelt.Mention{oldEventMention(g.b, g.c, s, last)}); err != nil {
		g.b.Fatal(err)
	}
}

func (g *sealGrower) seal() {
	if sealed, err := g.lg.Seal(); err != nil || !sealed {
		g.b.Fatalf("seal: (%v, %v)", sealed, err)
	}
}

// growTo seals daily until the log holds k parts.
func (g *sealGrower) growTo(k int) {
	for g.lg.Snapshot().K() < k {
		g.day()
		g.seal()
	}
}

// BenchmarkLogSeal times Log.Seal on a durable log over the same world,
// grown by daily seals to K ≈ 50 and K ≈ 200 parts. Before each timed seal
// a day of feed ticks and a mention of an event only the oldest part holds
// go in untimed (sealGrower.day). Reports ns and written bytes (part files
// and manifest) per seal, and the manifest's size.
func BenchmarkLogSeal(b *testing.B) {
	for _, k := range []int{50, 200} {
		b.Run(fmt.Sprintf("K%d", k), func(b *testing.B) {
			g := newSealGrower(b)
			g.growTo(k)
			written := func() float64 {
				return obs.Default.Snapshot().Find("shard_log_seal_written_bytes_total").Value
			}
			w0 := written()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g.day()
				b.StartTimer()
				g.seal()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/seal")
			b.ReportMetric((written()-w0)/float64(b.N), "written-B/seal")
			b.ReportMetric(obs.Default.Snapshot().Find("shard_log_manifest_bytes").Value, "manifest-B")
		})
	}
}

// BenchmarkLogOpen times OpenLog — manifest decode, a digest check and
// decode of every part file, event-metadata reconciliation, assembly — on
// a durable log grown to K ≈ 200 parts by daily seals.
func BenchmarkLogOpen(b *testing.B) {
	g := newSealGrower(b)
	g.growTo(200)
	want := g.lg.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lg, err := shard.OpenLog(g.lg.Dir())
		if err != nil {
			b.Fatal(err)
		}
		if s := lg.Snapshot(); s.K() != want.K() || s.EventCount() != want.EventCount() {
			b.Fatalf("reopened %d parts / %d events, want %d / %d", s.K(), s.EventCount(), want.K(), want.EventCount())
		}
	}
}
