// End-to-end live-feed test: a FeedServer speaking the real
// lastupdate/masterfile convention over a generated raw dataset, with
// chaos injecting an outage, a duplicate tick, and a reordered drop; a
// LiveRunner polling it, folding every tick through a Monitor into an
// append log with a compactor sealing along the way. The final world must
// answer queries identically to the same rows batch-built in one shot.
package stream_test

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"slices"
	"testing"

	"gdeltmine/internal/faults"
	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/registry"
	"gdeltmine/internal/shard"
	"gdeltmine/internal/store"
	"gdeltmine/internal/stream"
)

// liveCfg is a tiny, defect-free world with daily ticks: chaos comes from
// the feed server, not the data.
func liveCfg() gen.Config {
	c := gen.Small()
	c.End = 20150310000000 // ~21 daily ticks
	c.Sources = 40
	c.GKG = false
	c.DefectMalformedMaster = 0
	c.DefectMissingArchives = 0
	c.DefectMissingSourceURL = 0
	c.DefectFutureEventDate = 0
	c.IntervalsPerFile = 96
	return c
}

// emptyWorld builds an empty sharded world spanning the corpus and extra
// intervals past it, the append log's starting point. A durable log needs
// the extra range: a seal leaves a fresh tail behind the newest data.
func emptyWorld(t *testing.T, c *gen.Corpus, extra int32) *shard.DB {
	t.Helper()
	b, err := store.NewBuilder(gdelt.Timestamp(c.World.Cfg.Start),
		int32(c.World.Days()*gdelt.IntervalsPerDay)+extra)
	if err != nil {
		t.Fatal(err)
	}
	db, _, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	sdb, err := shard.Split(db, 1)
	if err != nil {
		t.Fatal(err)
	}
	return sdb
}

// batchWorld builds the reference: every corpus row converted in one shot.
func batchWorld(t *testing.T, c *gen.Corpus) *shard.DB {
	t.Helper()
	b, err := store.NewBuilder(gdelt.Timestamp(c.World.Cfg.Start),
		int32(c.World.Days()*gdelt.IntervalsPerDay))
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Events {
		ev := c.EventRecord(i)
		b.AddEvent(&ev)
	}
	for j := range c.Mentions {
		mn := c.MentionRecord(j)
		b.AddMention(&mn)
	}
	db, _, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	sdb, err := shard.Split(db, 1)
	if err != nil {
		t.Fatal(err)
	}
	return sdb
}

func runLiveKind(t *testing.T, s *shard.DB, kind string) any {
	t.Helper()
	d := registry.MustLookup(kind)
	p, err := d.ParseParams(func(string) []string { return nil })
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.RunSharded(s.View().WithWorkers(2).WithKind(kind), p)
	if err != nil {
		t.Fatalf("%s: %v", kind, err)
	}
	return got
}

func TestLiveFeedEndToEnd(t *testing.T) {
	cfg := liveCfg()
	c, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := gen.WriteRaw(c, dir); err != nil {
		t.Fatal(err)
	}

	// Chaos on fixed ticks: an outage, a stale duplicate, a reordered drop.
	fs, err := stream.NewFeedServer(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Ticks() < 12 {
		t.Fatalf("dataset has only %d ticks", fs.Ticks())
	}
	chaos := &faults.FeedChaos{Plan: map[string]faults.FeedFault{
		fs.TickTS(2).String(): faults.FeedOutage,
		fs.TickTS(4).String(): faults.FeedDuplicate,
		fs.TickTS(6).String(): faults.FeedDrop,
	}}
	fs, err = stream.NewFeedServer(dir, chaos)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(fs)
	defer srv.Close()

	start := gdelt.Timestamp(cfg.Start)
	lg := shard.NewLog(emptyWorld(t, c, 0))
	mon := stream.NewMonitor(lg, stream.Config{ChunkIntervals: 96, GraceIntervals: 96})
	comp := stream.NewCompactor(lg, stream.CompactorConfig{MaxTailRows: 1 << 30, MaxTailSpan: 5 * 96})
	runner := stream.NewLiveRunner(&stream.FeedClient{Base: srv.URL}, mon,
		start, stream.LiveConfig{TickIntervals: 96, SkipAfterPolls: 2})

	ctx := context.Background()
	for fs.Advance() {
		if err := runner.PollOnce(ctx); err != nil {
			t.Fatalf("poll at tick %d: %v", fs.Pos(), err)
		}
		if _, err := comp.RunOnce(); err != nil {
			t.Fatalf("compactor at tick %d: %v", fs.Pos(), err)
		}
	}
	// The drop tick surfaces in the master list a couple of ticks late;
	// drain with extra polls at the feed head.
	for i := 0; i < 4 && runner.Pending() > 0; i++ {
		if err := runner.PollOnce(ctx); err != nil {
			t.Fatal(err)
		}
	}

	st := runner.Stats()
	if st.Outages == 0 {
		t.Error("outage tick never observed")
	}
	if st.Duplicates == 0 {
		t.Error("duplicate advertisement never observed")
	}
	if st.CatchUps == 0 {
		t.Error("reordered drop never recovered through the master list")
	}
	if len(st.Skipped) != 0 {
		t.Errorf("ticks skipped: %v (all ticks are recoverable in this scenario)", st.Skipped)
	}
	if st.Ticks != fs.Ticks() {
		t.Fatalf("folded %d ticks, feed served %d", st.Ticks, fs.Ticks())
	}
	if gaps := mon.Gaps(); len(gaps) != 0 {
		t.Errorf("log ledger has gaps: %v", gaps)
	}

	// The compactor sealed along the way, and the final world answers like
	// the batch build.
	live := lg.Snapshot()
	if live.K() < 2 {
		t.Errorf("compactor never sealed: K=%d", live.K())
	}
	ref := batchWorld(t, c)
	if got, want := totalMentions(live), totalMentions(ref); got != want {
		t.Fatalf("live world has %d mention rows, batch has %d", got, want)
	}
	for _, kind := range []string{"top-publishers", "top-events", "country", "series-articles", "delays"} {
		if !reflect.DeepEqual(runLiveKind(t, live, kind), runLiveKind(t, ref, kind)) {
			t.Errorf("%s: live-fed world diverges from batch build", kind)
		}
	}
	// Every wildfire of the final world was alerted once on the way.
	if fires := live.View().FastSpreadingEvents(8, 5, 1<<30); st.Alerts != len(fires) {
		t.Errorf("%d alerts fired, the final world has %d wildfires", st.Alerts, len(fires))
	}
}

// TestLiveResumeFromCheckpoint restarts the poller mid-feed over its
// reopened log directory, whose ledger holds an interior gap (a dropped
// tick the first run gave up on). ResumePoint lands ON the gap, so the
// resumed runner walks back through territory the log already holds: it
// must drop every folded tick as a duplicate without re-fetching it,
// recognize the stale gap as unrecoverable (it is older than the grace
// window), and then fold exactly the ticks the first run never saw. The
// final world must answer every kind like an uninterrupted run's, with the
// same ledger gaps and skips.
func TestLiveResumeFromCheckpoint(t *testing.T) {
	cfg := liveCfg()
	c, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := gen.WriteRaw(c, dir); err != nil {
		t.Fatal(err)
	}

	// Tick 1 is a reordered drop. With SkipAfterPolls=1 and one poll per
	// advance, a run skips it before its files land (they surface at tick
	// 3, by which point the runner moved on) — a durable ledger gap.
	probe, err := stream.NewFeedServer(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	chaos := &faults.FeedChaos{Plan: map[string]faults.FeedFault{
		probe.TickTS(1).String(): faults.FeedDrop,
	}}
	feed := func() (*stream.FeedServer, *stream.FeedClient) {
		fs, err := stream.NewFeedServer(dir, chaos)
		if err != nil {
			t.Fatal(err)
		}
		if fs.Ticks() < 12 {
			t.Fatalf("dataset has only %d ticks", fs.Ticks())
		}
		srv := httptest.NewServer(fs)
		t.Cleanup(srv.Close)
		return fs, &stream.FeedClient{Base: srv.URL}
	}

	start := gdelt.Timestamp(cfg.Start)
	mcfg := stream.Config{ChunkIntervals: 96, GraceIntervals: 96}
	lcfg := stream.LiveConfig{TickIntervals: 96, SkipAfterPolls: 1}
	ctx := context.Background()
	// drain polls once per feed advance, up to polls advances (all when
	// negative), then drains what is still buffered at the feed head.
	drain := func(r *stream.LiveRunner, fs *stream.FeedServer, polls int) {
		t.Helper()
		for i := 0; i != polls && fs.Advance(); i++ {
			if err := r.PollOnce(ctx); err != nil {
				t.Fatalf("poll at tick %d: %v", fs.Pos(), err)
			}
		}
		for i := 0; polls < 0 && i < 4 && r.Pending() > 0; i++ {
			if err := r.PollOnce(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Uninterrupted reference run.
	refFS, refCl := feed()
	refLog := shard.NewLog(emptyWorld(t, c, 96))
	ref := stream.NewMonitor(refLog, mcfg)
	refRun := stream.NewLiveRunner(refCl, ref, start, lcfg)
	drain(refRun, refFS, -1)

	// First run: consume the first 8 ticks into a log directory, skipping
	// the dropped one, and seal on the way out.
	fs, cl := feed()
	logDir := t.TempDir()
	lg, err := shard.CreateLog(logDir, emptyWorld(t, c, 96))
	if err != nil {
		t.Fatal(err)
	}
	runner := stream.NewLiveRunner(cl, stream.NewMonitor(lg, mcfg), start, lcfg)
	drain(runner, fs, 8)
	st := runner.Stats()
	if len(st.Skipped) != 1 || st.Skipped[0] != fs.TickTS(1) {
		t.Fatalf("first run skipped %v, want exactly the dropped tick %s", st.Skipped, fs.TickTS(1))
	}
	if st.Ticks != 7 {
		t.Fatalf("first run folded %d ticks, want 7", st.Ticks)
	}
	if _, err := lg.Seal(); err != nil {
		t.Fatal(err)
	}

	// Restart: the log directory is the only state. The resume point is
	// the gap — the first tick the ledger lacks.
	lg2, err := shard.OpenLog(logDir)
	if err != nil {
		t.Fatal(err)
	}
	mon2 := stream.NewMonitor(lg2, mcfg)
	resume := mon2.ResumePoint(start, lcfg.TickIntervals)
	if resume != fs.TickTS(1) {
		t.Fatalf("resume point %s, want the gap %s", resume, fs.TickTS(1))
	}
	runner2 := stream.NewLiveRunner(cl, mon2, resume, lcfg)
	drain(runner2, fs, -1)

	st2 := runner2.Stats()
	if want := fs.Ticks() - 8; st2.Ticks != want {
		t.Errorf("resumed run folded %d ticks, want the %d unseen ones", st2.Ticks, want)
	}
	// The gap's files are served by now (the drop landed), but the tick is
	// older than the grace window: it must be re-skipped, not folded.
	if len(st2.Skipped) != 1 || st2.Skipped[0] != fs.TickTS(1) {
		t.Errorf("resumed run skipped %v, want exactly the stale gap %s", st2.Skipped, fs.TickTS(1))
	}
	if refSt := refRun.Stats(); !slices.Equal(refSt.Skipped, st2.Skipped) || refSt.Alerts != st.Alerts+st2.Alerts {
		t.Errorf("uninterrupted run skipped %v with %d alerts; interrupted runs %v with %d+%d",
			refSt.Skipped, refSt.Alerts, st2.Skipped, st.Alerts, st2.Alerts)
	}
	if st2.Duplicates < 7 {
		t.Errorf("resumed run counted %d duplicates, want >= the 7 folded ticks", st2.Duplicates)
	}
	if g, w := mon2.Gaps(), ref.Gaps(); !slices.Equal(g, w) || len(w) != 1 {
		t.Errorf("ledger gaps %v, uninterrupted %v; want the dropped tick only", g, w)
	}

	// The resumed world — reopened from disk once more — is the
	// uninterrupted one: nothing lost at the restart, nothing folded twice.
	if _, err := lg2.Seal(); err != nil {
		t.Fatal(err)
	}
	final, err := shard.OpenLog(logDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range registry.All() {
		if d.NeedsGKG {
			continue
		}
		got, want := jsonKind(t, final.Snapshot(), d.Kind), jsonKind(t, refLog.Snapshot(), d.Kind)
		if got != want {
			t.Errorf("%s: resumed world diverges from the uninterrupted one\n got  %.200s\n want %.200s", d.Kind, got, want)
		}
	}
}

func jsonKind(t *testing.T, s *shard.DB, kind string) string {
	t.Helper()
	js, err := json.Marshal(runLiveKind(t, s, kind))
	if err != nil {
		t.Fatal(err)
	}
	return string(js)
}

func totalMentions(s *shard.DB) int {
	n := 0
	for i := 0; i < s.K(); i++ {
		n += s.Part(i).Mentions.Len()
	}
	return n
}
