package queries

import (
	"testing"

	"gdeltmine/internal/gdelt"
)

func TestFirstReports(t *testing.T) {
	e := testEngine(t)
	fr := FirstReports(e)
	if fr.Events != int64(cachedDB.Events.Len()) {
		t.Fatalf("events %d want %d", fr.Events, cachedDB.Events.Len())
	}
	if total(fr.Histogram.Counts) != fr.Events {
		t.Fatalf("histogram total %d", total(fr.Histogram.Counts))
	}
	// The first report is never slower than the typical article, so its
	// median sits below the overall per-source median band (~16).
	if fr.Median < 1 || fr.Median > 20 {
		t.Fatalf("first-report median %d", fr.Median)
	}
	if fr.P90 < fr.Median {
		t.Fatalf("P90 %d below median %d", fr.P90, fr.Median)
	}
	if fr.WithinOneInterval <= 0 || fr.WithinOneInterval > 1 {
		t.Fatalf("within-one fraction %v", fr.WithinOneInterval)
	}
}

func TestFirstReportsMatchesSerial(t *testing.T) {
	e := testEngine(t)
	db := cachedDB
	fr := FirstReports(e)
	var fast int64
	for ev := 0; ev < db.Events.Len(); ev++ {
		d := int64(db.Events.FirstMention[ev]-db.Events.Interval[ev]) + 1
		if d <= 1 {
			fast++
		}
	}
	want := float64(fast) / float64(db.Events.Len())
	if diff := fr.WithinOneInterval - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("within-one %v want %v", fr.WithinOneInterval, want)
	}
}

func TestRepeats(t *testing.T) {
	e := testEngine(t)
	rc := Repeats(e, 5)
	if rc.Events == 0 {
		t.Fatal("no events")
	}
	// The corpus generates duplicate-source draws and reaction cascades, so
	// repeats exist.
	if rc.RepeatArticles == 0 || rc.EventsWithRepeats == 0 {
		t.Fatalf("no repeats found: %+v", rc)
	}
	if rc.EventsWithRepeats > rc.Events {
		t.Fatal("more repeat events than events")
	}
	if len(rc.TopRepeaters) == 0 {
		t.Fatal("no top repeaters")
	}
	for i := 1; i < len(rc.TopRepeaters); i++ {
		if rc.TopRepeaters[i].Articles > rc.TopRepeaters[i-1].Articles {
			t.Fatal("not descending")
		}
	}
	// Accounting identity: repeat articles = total articles - sum over
	// events of distinct sources.
	var distinct int64
	seen := map[int32]bool{}
	for ev := 0; ev < cachedDB.Events.Len(); ev++ {
		clear(seen)
		for _, r := range cachedDB.EventMentions(int32(ev)) {
			seen[cachedDB.Mentions.Source[r]] = true
		}
		distinct += int64(len(seen))
	}
	if rc.RepeatArticles != int64(cachedDB.Mentions.Len())-distinct {
		t.Fatalf("repeat accounting: %d want %d", rc.RepeatArticles, int64(cachedDB.Mentions.Len())-distinct)
	}
}

func TestSpeedGroups(t *testing.T) {
	e := testEngine(t)
	sg := SpeedGroups(e)
	total := sg.Sources[0] + sg.Sources[1] + sg.Sources[2]
	if total == 0 {
		t.Fatal("no sources classified")
	}
	// Section VI-E: the average (24h-cycle) group is the largest.
	if sg.Sources[SpeedGroupAverage] < sg.Sources[SpeedGroupFast] ||
		sg.Sources[SpeedGroupAverage] < sg.Sources[SpeedGroupSlow] {
		t.Fatalf("average group not largest: %v", sg.Sources)
	}
	// All three groups exist.
	for g := SpeedGroup(0); g < 3; g++ {
		if sg.Sources[g] == 0 {
			t.Fatalf("group %d empty", g)
		}
	}
	// Group medians are ordered.
	if !(sg.MedianDelay[SpeedGroupFast] < sg.MedianDelay[SpeedGroupAverage] &&
		sg.MedianDelay[SpeedGroupAverage] < sg.MedianDelay[SpeedGroupSlow]) {
		t.Fatalf("group medians not ordered: %v", sg.MedianDelay)
	}
	if sg.MedianDelay[SpeedGroupSlow] <= gdelt.IntervalsPerDay {
		t.Fatalf("slow group median %d within the day", sg.MedianDelay[SpeedGroupSlow])
	}
}
