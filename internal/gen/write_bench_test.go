package gen

import "testing"

// BenchmarkWriteRaw times WriteRaw of the Small preset's corpus into a
// fresh directory: rendering every chunk's rows, their CRCs, the file
// writes and the master list. MB/s is chunk bytes written.
func BenchmarkWriteRaw(b *testing.B) {
	c, err := Generate(Small())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := WriteRaw(c, b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(res.Bytes)
	}
}
