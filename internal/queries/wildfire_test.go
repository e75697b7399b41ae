package queries

import (
	"testing"

	"gdeltmine/internal/gdelt"
)

func TestFastSpreadingEvents(t *testing.T) {
	e := testEngine(t)
	// A 4-hour window with at least 5 distinct early sources.
	fires := FastSpreadingEvents(e, 16, 5, 10)
	if len(fires) == 0 {
		t.Fatal("no wildfire candidates found")
	}
	for i, w := range fires {
		if w.EarlySources < 5 {
			t.Fatalf("candidate %d has %d early sources", i, w.EarlySources)
		}
		if w.EarlyArticles < w.EarlySources {
			t.Fatalf("candidate %d: early articles %d < early sources %d", i, w.EarlyArticles, w.EarlySources)
		}
		if int32(w.EarlyArticles) > w.TotalArticles {
			t.Fatalf("candidate %d: early articles exceed total", i)
		}
		if i > 0 && w.EarlySources > fires[i-1].EarlySources {
			t.Fatal("not sorted by early sources")
		}
		if w.Velocity <= 0 {
			t.Fatalf("candidate %d velocity %v", i, w.Velocity)
		}
	}
	// Headline events with mostly-average sources ignite fast: the top
	// candidate should be a genuinely large event.
	if fires[0].TotalArticles < 10 {
		t.Fatalf("top wildfire only has %d articles", fires[0].TotalArticles)
	}
}

func TestFastSpreadingEventsDegenerate(t *testing.T) {
	e := testEngine(t)
	// Impossible threshold yields nothing.
	if got := FastSpreadingEvents(e, 1, 1<<20, 10); len(got) != 0 {
		t.Fatalf("expected no candidates, got %d", len(got))
	}
	// Window clamps to >= 1 and k truncates.
	got := FastSpreadingEvents(e, 0, 1, 3)
	if len(got) > 3 {
		t.Fatalf("k not honored: %d", len(got))
	}
}

func TestFastSpreadingEventsEarlyCountsExact(t *testing.T) {
	e := testEngine(t)
	db := e.DB()
	fires := FastSpreadingEvents(e, 16, 3, 5)
	if len(fires) == 0 {
		t.Skip("no candidates at this threshold")
	}
	w := fires[0]
	// Recompute the early distinct-source count directly from the mention
	// columns.
	cutoff := db.Events.Interval[w.EventRow] + 16
	seen := map[int32]bool{}
	for r, ev := range db.Mentions.EventRow {
		if ev == w.EventRow && db.Mentions.Interval[r] < cutoff {
			seen[db.Mentions.Source[r]] = true
		}
	}
	if len(seen) != w.EarlySources {
		t.Fatalf("early sources %d want %d", w.EarlySources, len(seen))
	}
	_ = gdelt.IntervalsPerDay
}
