package gdelt

import "testing"

// Raw-codec throughput: the per-row cost of the preprocessing tool.

func BenchmarkParseEventRow(b *testing.B) {
	ev := sampleEvent()
	row := AppendEventRow(nil, &ev)
	var fields [][]byte
	b.SetBytes(int64(len(row)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fields = SplitTabs(row, fields)
		if _, err := ParseEventFields(fields); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseMentionRow(b *testing.B) {
	mn := sampleMention()
	row := AppendMentionRow(nil, &mn)
	var fields [][]byte
	b.SetBytes(int64(len(row)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fields = SplitTabs(row, fields)
		if _, err := ParseMentionFields(fields); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendMentionRow(b *testing.B) {
	mn := sampleMention()
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendMentionRow(buf[:0], &mn)
	}
}

// BenchmarkTimestampIntervalIndex times the calendar conversions every
// ingested row pays: timestamp -> interval, interval -> timestamp, and the
// validity check.
func BenchmarkTimestampIntervalIndex(b *testing.B) {
	ts := Timestamp(20171106221500)
	b.Run("IntervalIndex", func(b *testing.B) {
		var sink int64
		for i := 0; i < b.N; i++ {
			sink += (ts + Timestamp(i&15)).IntervalIndex()
		}
		_ = sink
	})
	b.Run("IntervalStart", func(b *testing.B) {
		var sink Timestamp
		for i := 0; i < b.N; i++ {
			sink += IntervalStart(int64(i & 0x3ffff))
		}
		_ = sink
	})
	b.Run("Valid", func(b *testing.B) {
		var sink int
		for i := 0; i < b.N; i++ {
			if (ts + Timestamp(i&15)).Valid() {
				sink++
			}
		}
		_ = sink
	})
}

func BenchmarkCountryFromDomain(b *testing.B) {
	domains := []string{"dailyecho.co.uk", "www.nytimes.com", "news.com.au", "unknown.xyz"}
	var sink int
	for i := 0; i < b.N; i++ {
		sink += CountryFromDomain(domains[i&3])
	}
	_ = sink
}
