package engine

import (
	"math"
	"testing"
)

func TestColPredZeroValuePassesEverything(t *testing.T) {
	var p ColPred
	if !p.empty() {
		t.Fatal("zero ColPred should be empty (match everything)")
	}
	p = PredGT([]int32{0, 5, 10}, 4)
	sel := p.sel(0, 3, nil)
	if len(sel) != 2 || sel[0] != 1 || sel[1] != 2 {
		t.Fatalf("PredGT selection = %v, want [1 2]", sel)
	}
	p = ColPred{Col: []int32{0, 5, 10}, Min: 5, Max: 5}
	sel = p.sel(0, 3, nil)
	if len(sel) != 1 || sel[0] != 1 {
		t.Fatalf("[5, 5] selection = %v, want [1]", sel)
	}
	p = ColPred{Col: []int32{0, 5, 10}, Min: math.MinInt32, Max: 0}
	sel = p.sel(1, 3, nil) // offset segment: indices are absolute
	if len(sel) != 0 {
		t.Fatalf("<= 0 selection = %v, want empty", sel)
	}
}

func TestClipRowsNarrowsToWindow(t *testing.T) {
	db := testDB(t)
	e := New(db)
	all := make([]int32, db.Mentions.Len())
	for i := range all {
		all[i] = int32(i)
	}
	if got := e.ClipRows(all); len(got) != len(all) {
		t.Fatalf("full window clipped %d of %d rows", len(got), len(all))
	}
	we := e.WithInterval(db.Meta.Intervals/4, db.Meta.Intervals/2)
	lo, hi := we.Window()
	got := we.ClipRows(all)
	if len(got) != hi-lo {
		t.Fatalf("window clip kept %d rows, want %d", len(got), hi-lo)
	}
	for _, r := range got {
		if int(r) < lo || int(r) >= hi {
			t.Fatalf("clipped row %d outside window [%d,%d)", r, lo, hi)
		}
	}
	// Empty window clips everything.
	if got := e.WithInterval(db.Meta.Intervals/2, db.Meta.Intervals/2).ClipRows(all); len(got) != 0 {
		t.Fatalf("empty window kept %d rows", len(got))
	}
}

func TestTypedKernelsRepeatedCallsStayClean(t *testing.T) {
	// Repeated invocations reuse pooled accumulators; results must not
	// accumulate garbage across calls.
	db := testDB(t)
	e := New(db).WithWorkers(2)
	first := e.GroupCountCol(db.Sources.Len(), db.Mentions.Source, nil)
	for i := 0; i < 10; i++ {
		again := e.GroupCountCol(db.Sources.Len(), db.Mentions.Source, nil)
		for g := range first {
			if again[g] != first[g] {
				t.Fatalf("call %d: group %d = %d, first call %d", i, g, again[g], first[g])
			}
		}
	}
	m1 := e.CrossCountCols(2, 4, db.Mentions.Source, nil, db.Mentions.Interval, nil)
	for i := 0; i < 10; i++ {
		m2 := e.CrossCountCols(2, 4, db.Mentions.Source, nil, db.Mentions.Interval, nil)
		for j := range m1.Data {
			if m2.Data[j] != m1.Data[j] {
				t.Fatalf("call %d: cell %d = %d, first call %d", i, j, m2.Data[j], m1.Data[j])
			}
		}
	}
}
