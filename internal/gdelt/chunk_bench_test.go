package gdelt_test

import (
	"testing"

	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/gen"
)

// parsedRows keeps the benchmark's row count live.
var parsedRows int

// BenchmarkParseChunk times ParseChunk over the export, the mentions and
// the GKG file of one generated chunk, the one halfway through the Small preset's
// archive, with a sink that only counts rows: the walk, the split and the
// parse, none of what a caller does with a row. MB/s is raw TSV.
func BenchmarkParseChunk(b *testing.B) {
	c, err := gen.Generate(gen.Small())
	if err != nil {
		b.Fatal(err)
	}
	width := int32(c.World.Cfg.IntervalsPerFile)
	lo := int32(c.World.Days()*gdelt.IntervalsPerDay) / width / 2 * width
	var export, mentions, gkg []byte
	for i := range c.Events {
		if fm := c.Events[i].FirstMention; fm >= lo && fm < lo+width {
			ev := c.EventRecord(i)
			export = append(gdelt.AppendEventRow(export, &ev), '\n')
		}
	}
	for j := range c.Mentions {
		if iv := c.Mentions[j].Interval; iv >= lo && iv < lo+width {
			mn := c.MentionRecord(j)
			mentions = append(gdelt.AppendMentionRow(mentions, &mn), '\n')
			rec := c.GKGRecord(j)
			gkg = append(gdelt.AppendGKGRow(gkg, &rec), '\n')
		}
	}
	sink := gdelt.ChunkSink{
		Event:   func(gdelt.Event) { parsedRows++ },
		Mention: func(gdelt.Mention) { parsedRows++ },
		GKG:     func(gdelt.GKGRecord) { parsedRows++ },
	}
	for _, ch := range []struct {
		kind string
		data []byte
	}{{"export", export}, {"mentions", mentions}, {"gkg", gkg}} {
		b.Run(ch.kind, func(b *testing.B) {
			b.SetBytes(int64(len(ch.data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := gdelt.ParseChunk(ch.kind, ch.data, sink); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
