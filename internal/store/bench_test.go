package store

import (
	"testing"

	"gdeltmine/internal/gdelt"
)

// Builder throughput: rows ingested and indexed per second, the core cost
// of the preprocessing step.

func benchRecords(n int) ([]gdelt.Event, []gdelt.Mention) {
	events := make([]gdelt.Event, n/4)
	for i := range events {
		events[i] = gdelt.Event{
			GlobalEventID: int64(i + 1),
			Day:           20150301,
			ActionCountry: "US",
			SourceURL:     "https://a.com/x",
			DateAdded:     gdelt.IntervalStart(int64(i % 96000)),
		}
	}
	mentions := make([]gdelt.Mention, n)
	for i := range mentions {
		ev := int64(i%len(events)) + 1
		iv := int64(i % 96000)
		mentions[i] = gdelt.Mention{
			GlobalEventID: ev,
			EventTime:     gdelt.IntervalStart(iv),
			MentionTime:   gdelt.IntervalStart(iv + int64(i%50)),
			MentionType:   1,
			SourceName:    sourceNames[i%len(sourceNames)],
			DocLen:        1000,
		}
	}
	return events, mentions
}

var sourceNames = []string{
	"alpha.com", "beta.co.uk", "gamma.com.au", "delta.in", "epsilon.it",
	"zeta.ca", "eta.co.za", "theta.ng", "iota.com.bd", "kappa.ph",
}

func BenchmarkBuilderFinish(b *testing.B) {
	const rows = 200000
	events, mentions := benchRecords(rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		builder, err := NewBuilder(20150218000000, 96*1100)
		if err != nil {
			b.Fatal(err)
		}
		for j := range events {
			builder.AddEvent(&events[j])
		}
		for j := range mentions {
			builder.AddMention(&mentions[j])
		}
		db, _, err := builder.Finish()
		if err != nil {
			b.Fatal(err)
		}
		if db.Mentions.Len() != rows {
			b.Fatal("row loss")
		}
	}
	b.ReportMetric(float64(rows*b.N)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkMentionRowRange(b *testing.B) {
	builder, err := NewBuilder(20150218000000, 96*1100)
	if err != nil {
		b.Fatal(err)
	}
	events, mentions := benchRecords(100000)
	for j := range events {
		builder.AddEvent(&events[j])
	}
	for j := range mentions {
		builder.AddMention(&mentions[j])
	}
	db, _, err := builder.Finish()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo, hi := db.MentionRowRange(int32(i%90000), int32(i%90000)+960)
		if hi < lo {
			b.Fatal("bad range")
		}
	}
}
