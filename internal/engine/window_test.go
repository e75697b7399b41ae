package engine

import (
	"testing"
)

func TestWithIntervalRestrictsScans(t *testing.T) {
	db := testDB(t)
	e := New(db)
	total := countRows(e, func(int) bool { return true })
	if total != int64(db.Mentions.Len()) {
		t.Fatalf("unwindowed count %d", total)
	}

	// Split the archive at the midpoint interval; the two halves partition
	// the mentions.
	mid := db.Meta.Intervals / 2
	first := e.WithInterval(0, mid)
	second := e.WithInterval(mid, db.Meta.Intervals)
	c1 := countRows(first, func(int) bool { return true })
	c2 := countRows(second, func(int) bool { return true })
	if c1+c2 != total {
		t.Fatalf("window halves %d+%d != %d", c1, c2, total)
	}
	if c1 == 0 || c2 == 0 {
		t.Fatal("degenerate split")
	}
	if first.WindowSize() != int(c1) || second.WindowSize() != int(c2) {
		t.Fatal("WindowSize disagrees with count")
	}

	// Every row visible in the first window is actually before mid.
	bad := countRows(first, func(row int) bool { return db.Mentions.Interval[row] >= mid })
	if bad != 0 {
		t.Fatalf("%d rows outside window visible", bad)
	}
}

func TestWithIntervalEmptyWindow(t *testing.T) {
	db := testDB(t)
	e := New(db).WithInterval(5, 5)
	if got := countRows(e, func(int) bool { return true }); got != 0 {
		t.Fatalf("empty window counted %d", got)
	}
	if e.WindowSize() != 0 {
		t.Fatal("empty window size")
	}
	// Window before any data.
	e2 := New(db).WithInterval(0, 0)
	if e2.WindowSize() != 0 {
		t.Fatal("zero-width window should be empty")
	}
}

func TestWindowedGroupCountPartitions(t *testing.T) {
	db := testDB(t)
	e := New(db)
	whole := groupRows(e, db.Sources.Len(), func(row int) int { return int(db.Mentions.Source[row]) })
	mid := db.Meta.Intervals / 3
	a := groupRows(e.WithInterval(0, mid), db.Sources.Len(), func(row int) int { return int(db.Mentions.Source[row]) })
	b := groupRows(e.WithInterval(mid, db.Meta.Intervals), db.Sources.Len(), func(row int) int { return int(db.Mentions.Source[row]) })
	for s := range whole {
		if a[s]+b[s] != whole[s] {
			t.Fatalf("source %d: %d+%d != %d", s, a[s], b[s], whole[s])
		}
	}
}

func TestWindowedSumByGroupPartitions(t *testing.T) {
	db := testDB(t)
	e := New(db)
	keyVal := func(row int) (int, float64) {
		return db.QuarterOfInterval(db.Mentions.Interval[row]), float64(db.Mentions.Delay[row])
	}
	whole := sumRows(e, db.NumQuarters(), keyVal)
	mid := db.Meta.Intervals / 2
	a := sumRows(e.WithInterval(0, mid), db.NumQuarters(), keyVal)
	b := sumRows(e.WithInterval(mid, db.Meta.Intervals), db.NumQuarters(), keyVal)
	for q := range whole {
		if diff := a[q] + b[q] - whole[q]; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("quarter %d: %v + %v != %v", q, a[q], b[q], whole[q])
		}
	}
}

func TestWindowedCrossCountSubsetOfWhole(t *testing.T) {
	db := testDB(t)
	e := New(db)
	whole := crossCountries(e)
	win := crossCountries(e.WithInterval(0, db.Meta.Intervals/2))
	for i := range whole.Data {
		if win.Data[i] > whole.Data[i] {
			t.Fatalf("windowed cell %d exceeds whole", i)
		}
	}
	if win.Sum() >= whole.Sum() {
		t.Fatal("window did not restrict anything")
	}
}
