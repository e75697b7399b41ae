package engine

import (
	"context"
	"sync/atomic"
	"testing"
)

// TestWithContextStopsScanEarly cancels mid-scan and checks the engine
// stopped visiting rows well before the end of the mention table.
func TestWithContextStopsScanEarly(t *testing.T) {
	db := testDB(t)
	n := int64(db.Mentions.Len())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e := New(db).WithWorkers(4).WithContext(ctx)

	var visited atomic.Int64
	countRows(e, func(row int) bool {
		if visited.Add(1) == 100 {
			cancel()
		}
		return true
	})
	got := visited.Load()
	if got >= n {
		t.Fatalf("scan visited all %d rows despite cancellation", n)
	}
	if ctx.Err() == nil {
		t.Fatal("context not cancelled")
	}
}

func TestWithContextNilBehavesNormally(t *testing.T) {
	db := testDB(t)
	e := New(db).WithWorkers(4)
	all := countRows(e, func(row int) bool { return true })
	if all != int64(db.Mentions.Len()) {
		t.Fatalf("uncancelled count %d, want %d", all, db.Mentions.Len())
	}
	// An already-cancelled context yields an (empty) partial aggregate.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got := countRows(e.WithContext(ctx), func(row int) bool { return true })
	if got != 0 {
		t.Fatalf("pre-cancelled count %d, want 0", got)
	}
}
