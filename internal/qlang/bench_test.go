package qlang

import "testing"

func BenchmarkCompile(b *testing.B) {
	db := testDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(db, "sourcecountry=UK and delay>96 and quarter>=2016Q1 and doclen<2000"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectScan times the residual pipeline over the whole mention
// table: a direct-column stage (delay) then a gathered one (sourcecountry),
// in selection batches the size the ad-hoc kernels use.
func BenchmarkSelectScan(b *testing.B) {
	db := testDB(b)
	f, err := Compile(db, "sourcecountry=UK and delay>96")
	if err != nil {
		b.Fatal(err)
	}
	rows := db.Mentions.Len()
	sel := make([]int32, 0, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var n int64
		for lo := 0; lo < rows; lo += 4096 {
			sel = f.Select(lo, min(lo+4096, rows), sel[:0])
			n += int64(len(sel))
		}
		if n == 0 {
			b.Fatal("no matches")
		}
	}
	b.ReportMetric(float64(rows*b.N)/b.Elapsed().Seconds(), "rows/s")
}
