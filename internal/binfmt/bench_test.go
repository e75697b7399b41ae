package binfmt

import (
	"bytes"
	"io"
	"testing"
)

// Binary-format throughput: the one-time conversion cost and, more
// importantly, the load cost every analysis session pays.

func BenchmarkWriteDB(b *testing.B) {
	db := testDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Write(io.Discard, db); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(db.Mentions.Len()*b.N)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkReadDB(b *testing.B) {
	db := testDB(b)
	var buf bytes.Buffer
	if err := Write(&buf, db); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := ReadBytes(data)
		if err != nil {
			b.Fatal(err)
		}
		if got.Mentions.Len() != db.Mentions.Len() {
			b.Fatal("row loss")
		}
	}
}

func BenchmarkEncodeMentions(b *testing.B) {
	db := testDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := encodeMentions(&db.Mentions); len(out) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkDecodeMentions(b *testing.B) {
	db := testDB(b)
	payload := encodeMentions(&db.Mentions)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeMentions(payload); err != nil {
			b.Fatal(err)
		}
	}
}
