package stream

import (
	"errors"
	"slices"
	"testing"

	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/shard"
)

func TestGapDetection(t *testing.T) {
	m := testMonitor(t, Config{GraceIntervals: 4})
	// Ticks arrive every interval; interval 2 never shows up.
	for _, iv := range []int64{0, 1, 3, 4} {
		fold(t, m, iv, nil)
	}
	gaps := m.Gaps()
	if len(gaps) != 1 || gaps[0] != ivTS(2) {
		t.Fatalf("gaps = %v, want [%v]", gaps, ivTS(2))
	}
	if m.SeenChunk(ivTS(2)) {
		t.Fatal("SeenChunk reported an unmarked interval")
	}

	// Catch-up: the late tick arrives within grace, closing the gap.
	if f := fold(t, m, 2, nil); !f.Late {
		t.Fatal("a tick behind the newest mark was not reported late")
	}
	if gaps := m.Gaps(); len(gaps) != 0 {
		t.Fatalf("gaps after catch-up = %v, want none", gaps)
	}
	if !m.SeenChunk(ivTS(2)) {
		t.Fatal("SeenChunk missed a marked interval")
	}
	if got := m.ResumePoint(ivTS(0), 1); got != ivTS(5) {
		t.Fatalf("ResumePoint = %v, want %v", got, ivTS(5))
	}
}

func TestGapDetectionConfiguredSpacing(t *testing.T) {
	// Ticks every 4 intervals; two consecutive arrivals lost.
	m := testMonitor(t, Config{ChunkIntervals: 4})
	for _, iv := range []int64{0, 4, 16} {
		fold(t, m, iv, nil)
	}
	gaps := m.Gaps()
	want := []gdelt.Timestamp{ivTS(8), ivTS(12)}
	if !slices.Equal(gaps, want) {
		t.Fatalf("gaps = %v, want %v", gaps, want)
	}
}

// TestGraceWindowAcceptsLateMentions: a late tick within grace folds, and
// its mentions count as late, where the log can still take them; a tick
// beyond grace, or one behind the log's newest mention, is stale and
// leaves the log untouched.
func TestGraceWindowAcceptsLateMentions(t *testing.T) {
	m := testMonitor(t, Config{GraceIntervals: 4, MinSources: 2})
	fold(t, m, 0, []gdelt.Event{event(1, 0)}, mention(1, 0, 0, "a.example"))
	fold(t, m, 5, []gdelt.Event{event(2, 5)}) // export-only ticks: the
	fold(t, m, 6, []gdelt.Event{event(3, 6)}) // log's newest mention stays 0
	// A tick 3 intervals behind the newest mark: inside grace, accepted.
	f := fold(t, m, 3, []gdelt.Event{event(10, 3)}, mention(10, 3, 3, "late.example"))
	if !f.Late || f.AppendedMentions != 1 {
		t.Fatalf("late tick: Late %v, %d mentions appended; want true, 1", f.Late, f.AppendedMentions)
	}
	if got := m.lg.Snapshot().Tail().Mentions.Len(); got != 2 {
		t.Fatalf("log holds %d mentions, want 2", got)
	}

	stale := func(m *Monitor, iv int64) {
		t.Helper()
		before := m.lg.Snapshot()
		_, err := m.Fold(ivTS(iv), []gdelt.Event{event(20+iv, iv)}, []gdelt.Mention{mention(20+iv, iv, iv, "b.example")})
		if !errors.Is(err, ErrStale) {
			t.Fatalf("tick %d: err %v, want ErrStale", iv, err)
		}
		if m.lg.Snapshot() != before || m.SeenChunk(ivTS(iv)) {
			t.Fatalf("stale tick %d changed the log", iv)
		}
	}
	stale(m, 1) // 5 intervals behind the newest mark: beyond grace
	stale(m, 2) // within grace, but behind the log's newest mention (3)

	// Strict mode (zero grace) refuses any regression.
	m3 := testMonitor(t, Config{})
	fold(t, m3, 2, nil)
	stale(m3, 1)
}

// TestLateMentionStillCountsTowardAlert: a late tick's mention inside an
// event's window fires the alert like an on-time one.
func TestLateMentionStillCountsTowardAlert(t *testing.T) {
	m := testMonitor(t, Config{Window: 8, MinSources: 2, GraceIntervals: 4})
	fold(t, m, 3, []gdelt.Event{event(7, 2)}, mention(7, 2, 3, "a.example"))
	fold(t, m, 5, []gdelt.Event{event(8, 5)}) // the clock moves ahead
	f := fold(t, m, 4, nil, mention(7, 2, 4, "c.example"))
	if !f.Late || len(f.Alerts) != 1 || f.Alerts[0].EventID != 7 {
		t.Fatalf("late tick: Late %v, alerts %+v; want one alert for event 7", f.Late, f.Alerts)
	}
}

// TestCheckpointResume is the restart drill on the log directory: a replay
// interrupted mid-feed — one unreadable tick left behind as a gap — and
// resumed from the reopened directory folds only the ticks the ledger
// lacks, fires exactly the alerts an uninterrupted replay fires, and ends
// in a world answering every kind like the uninterrupted one, with the
// same ledger gaps.
func TestCheckpointResume(t *testing.T) {
	c := streamCorpus(t)
	spacing := int32(c.World.Cfg.IntervalsPerFile)
	ticks := corpusTicks(c, spacing)
	cfg := Config{Window: 16, MinSources: 3}
	start := gdelt.Timestamp(c.World.Cfg.Start)
	// The seal of the last tick needs interval range left after its data.
	intervals := int32(c.World.Days()*gdelt.IntervalsPerDay) + spacing
	const gap, cut = 7, 20

	full := NewMonitor(shard.NewLog(emptyWorld(t, start, intervals)), cfg)
	want := foldTicks(t, full, ticks, gap)

	dir := t.TempDir()
	lg, err := shard.CreateLog(dir, emptyWorld(t, start, intervals))
	if err != nil {
		t.Fatal(err)
	}
	got := foldTicks(t, NewMonitor(lg, cfg), ticks[:cut], gap)
	if _, err := lg.Seal(); err != nil { // the interrupted run's last act
		t.Fatal(err)
	}

	re, err := shard.OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(re.Ledger(), lg.Ledger()) {
		t.Fatalf("reopened ledger %v, want %v", re.Ledger(), lg.Ledger())
	}
	resumed := NewMonitor(re, cfg)
	if got := resumed.ResumePoint(start, spacing); got != ticks[gap].ts {
		t.Fatalf("resume point %s, want the gap %s", got, ticks[gap].ts)
	}
	if resumed.Foldable(ticks[gap].ts) {
		t.Fatal("the stale gap reported foldable")
	}
	if _, err := re.AppendTick(ticks[3].ts, ticks[3].evs, ticks[3].mns); err == nil {
		t.Fatal("the log folded a tick its ledger already holds")
	}
	got = append(got, foldTicks(t, resumed, ticks)...)
	if _, err := re.Seal(); err != nil {
		t.Fatal(err)
	}
	if len(re.Ledger()) != len(ticks)-1 {
		t.Fatalf("ledger holds %d ticks, want %d", len(re.Ledger()), len(ticks)-1)
	}

	if !slices.Equal(got, want) {
		t.Fatalf("interrupted+resumed runs fired %d alerts, an uninterrupted one %d", len(got), len(want))
	}
	final, err := shard.OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, kindAnswers(t, final.Snapshot()), kindAnswers(t, full.lg.Snapshot()), "resumed vs uninterrupted")
	if g, w := NewMonitor(final, cfg).Gaps(), full.Gaps(); !slices.Equal(g, w) || len(w) != 1 {
		t.Fatalf("gaps: resumed %v, uninterrupted %v, want the one unreadable tick", g, w)
	}
}
