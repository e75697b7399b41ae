// Tests for the incremental append path (DB.appendTail / DB.replaceTail):
// the incrementally maintained world must equal a cold-start rebuild after
// every tick and seal, old snapshots must stay byte-identical while a
// writer appends and seals (run under -race: this is what catches a shared
// column written in place), and the bytes one append allocates must not
// grow with the sealed world.
package shard_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/obs"
	"gdeltmine/internal/registry"
	"gdeltmine/internal/shard"
	"gdeltmine/internal/store"
)

// feedTick is one 15-minute update as the feed delivers it: the events
// first reported in the interval and every mention captured in it.
type feedTick struct {
	evs []gdelt.Event
	mns []gdelt.Mention
}

// feedWorld batch-builds the rows a feed has delivered before interval cut
// (events first seen before it, mentions captured before it) and renders
// every later interval as a tick — bench/live_ingest.go's set-up without
// the disk.
func feedWorld(tb testing.TB, c *gen.Corpus, cut int32) (*store.DB, []feedTick) {
	tb.Helper()
	intervals := int32(c.World.Days() * gdelt.IntervalsPerDay)
	b, err := store.NewBuilder(gdelt.Timestamp(c.World.Cfg.Start), intervals)
	if err != nil {
		tb.Fatal(err)
	}
	ticks := make([]feedTick, intervals-cut)
	for i := range c.Events {
		ev := c.EventRecord(i)
		if fm := c.Events[i].FirstMention; fm < cut {
			b.AddEvent(&ev)
		} else {
			ticks[fm-cut].evs = append(ticks[fm-cut].evs, ev)
		}
	}
	for j := range c.Mentions {
		mn := c.MentionRecord(j)
		if iv := c.Mentions[j].Interval; iv < cut {
			b.AddMention(&mn)
		} else {
			ticks[iv-cut].mns = append(ticks[iv-cut].mns, mn)
		}
	}
	base, _, err := b.Finish()
	if err != nil {
		tb.Fatal(err)
	}
	return base, ticks
}

// feedLog opens a log over the feed's base world: two sealed parts and an
// empty tail from the cut on. The log is in memory for dir "", else
// persisted under dir.
func feedLog(tb testing.TB, cfg gen.Config, liveDays int32, dir string) (*gen.Corpus, *shard.Log, []feedTick, int32) {
	tb.Helper()
	c, err := gen.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	intervals := int32(c.World.Days() * gdelt.IntervalsPerDay)
	cut := intervals - liveDays*gdelt.IntervalsPerDay
	base, ticks := feedWorld(tb, c, cut)
	sdb, err := shard.SplitAt(base, []int32{0, cut / 2, cut, intervals})
	if err != nil {
		tb.Fatal(err)
	}
	if dir == "" {
		return c, shard.NewLog(sdb), ticks, cut
	}
	lg, err := shard.CreateLog(dir, sdb)
	if err != nil {
		tb.Fatal(err)
	}
	return c, lg, ticks, cut
}

func appendFallbacks() float64 {
	return obs.Default.Snapshot().Find("shard_log_append_fallback_total").Value
}

func TestLogIncrementalEqualsRebuild(t *testing.T) {
	for _, seed := range []int64{42, 777} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg := logWorldCfg()
			cfg.Seed = seed
			c, lg, ticks, cut := feedLog(t, cfg, 30, "")
			// check holds the world and the derived indexes of its newest parts
			// — the tail an append rebuilt by the dirty-key rule, and after a
			// seal the two parts sliced out of it — to rebuilds from scratch.
			check := func(when string) {
				t.Helper()
				s := lg.Snapshot()
				if err := shard.DiffFromRebuild(s); err != nil {
					t.Fatalf("%s: incremental world differs from a rebuild: %v", when, err)
				}
				for i := max(0, s.K()-2); i < s.K(); i++ {
					if err := s.Part(i).DiffFromRebuild(); err != nil {
						t.Fatalf("%s: part %d: %v", when, i, err)
					}
				}
			}
			check("initial world")
			// The generated feed does not deliver event ids in order; count
			// the ticks that insert below the stored maximum, so the schedule
			// is known to have exercised the insert.
			var maxID int64
			baseEvents := 0
			for i := range c.Events {
				if c.Events[i].FirstMention < cut {
					maxID = max(maxID, c.Events[i].ID)
					baseEvents++
				}
			}
			fallbacks := appendFallbacks()
			fed, seals, late, recent := 0, 0, 0, 0
			for i, tk := range ticks {
				if len(tk.evs)+len(tk.mns) == 0 {
					continue
				}
				below := false
				for _, ev := range tk.evs {
					below = below || ev.GlobalEventID < maxID
				}
				for _, ev := range tk.evs {
					maxID = max(maxID, ev.GlobalEventID)
				}
				if below {
					late++
				}
				if _, err := lg.Append(tk.evs, tk.mns); err != nil {
					t.Fatalf("tick %d: %v", i, err)
				}
				check(fmt.Sprintf("after tick %d", i))
				if fed++; fed == 100 {
					appendOddTicks(t, c, lg, cut+int32(i))
					check("after the odd ticks")
				}
				if lg.TailSpan() >= gdelt.IntervalsPerDay {
					if sealed, err := lg.Seal(); err != nil || !sealed {
						t.Fatalf("seal after tick %d: (%v, %v)", i, sealed, err)
					}
					seals++
					check(fmt.Sprintf("after the seal following tick %d", i))
					recent = max(recent, shard.RecentEvents(lg.Snapshot()))
				}
			}
			if fed < 200 || seals < 5 || late < 50 {
				t.Fatalf("schedule too short: %d ticks, %d seals, %d ticks with an id below the maximum", fed, seals, late)
			}
			if got := appendFallbacks(); got != fallbacks {
				t.Fatalf("%v appends took the full-merge fallback", got-fallbacks)
			}
			// Seals freeze what the feed stopped writing: 30 days of events
			// must not all still sit in the run every tick rebuilds.
			final := lg.Snapshot()
			if n, grown := shard.RecentEvents(final), final.EventCount()-baseEvents; recent == 0 || 2*n > grown {
				t.Fatalf("recent run holds %d of the %d events appended (peak %d after a seal)", n, grown, recent)
			}
		})
	}
}

// appendOddTicks folds, at capture interval iv, the shapes the generated
// feed does not carry: an event whose id lies below every stored one (an
// insert at row 0 of the frozen run, moving every remap), a re-delivered
// record of an event only a sealed part holds, a first-seen source, and an
// event that arrives with no mention and a DateAdded before the tail
// window — which the next seal slices out of the world, so the seal cannot
// keep the global table.
func appendOddTicks(t *testing.T, c *gen.Corpus, lg *shard.Log, iv int32) {
	t.Helper()
	ts := c.IntervalTimestamp(iv)
	snap := lg.Snapshot()
	web := func(id int64, src string) gdelt.Mention {
		return gdelt.Mention{GlobalEventID: id, EventTime: ts, MentionTime: ts,
			MentionType: gdelt.MentionTypeWeb, SourceName: src, DocLen: 700, Confidence: 60}
	}
	known := snap.Sources().Name(0)

	st, err := lg.Append(
		[]gdelt.Event{{GlobalEventID: 1, Day: 20150501, DateAdded: ts, SourceURL: "http://late.example/1"}},
		[]gdelt.Mention{web(1, known)})
	if err != nil {
		t.Fatal(err)
	}
	if st.AppendedEvents != 1 || st.AppendedMentions != 1 {
		t.Fatalf("below-maximum tick: stats %+v, want 1 event / 1 mention", st)
	}
	if err := shard.DiffFromRebuild(lg.Snapshot()); err != nil {
		t.Fatalf("after the lowest-id tick: %v", err)
	}
	if err := lg.Snapshot().Tail().DiffFromRebuild(); err != nil {
		t.Fatalf("tail after the lowest-id tick: %v", err)
	}

	var old gdelt.Event
	found := false
	for i := range c.Events {
		if id := c.Events[i].ID; snap.Part(0).EventRowByID(id) >= 0 && snap.Tail().EventRowByID(id) < 0 {
			old, found = c.EventRecord(i), true
			break
		}
	}
	if !found {
		t.Fatal("no event held by part 0 only; pick another world")
	}
	st, err = lg.Append(
		[]gdelt.Event{old, {GlobalEventID: 2, Day: 20150219, DateAdded: c.IntervalTimestamp(0)}},
		[]gdelt.Mention{web(1, "first-seen.example")})
	if err != nil {
		t.Fatal(err)
	}
	if st.DuplicateEvents != 1 || st.AppendedEvents != 1 || st.AppendedMentions != 1 {
		t.Fatalf("odd tick: stats %+v, want 1 duplicate / 1 event / 1 mention", st)
	}
	if lg.Snapshot().Sources().Lookup("first-seen.example") < 0 || snap.Sources().Lookup("first-seen.example") >= 0 {
		t.Fatal("first-seen source must reach the new world's global dictionary and only it")
	}
}

func TestLogSnapshotIsolationUnderAppends(t *testing.T) {
	_, lg, ticks, _ := feedLog(t, logWorldCfg(), 30, "")
	next := 0
	feed := func(n int) (seals int) {
		for fed := 0; fed < n; next++ {
			if next >= len(ticks) {
				t.Fatal("out of ticks")
			}
			tk := ticks[next]
			if len(tk.evs)+len(tk.mns) == 0 {
				continue
			}
			if _, err := lg.Append(tk.evs, tk.mns); err != nil {
				t.Fatal(err)
			}
			fed++
			if lg.TailSpan() >= gdelt.IntervalsPerDay {
				if sealed, err := lg.Seal(); err != nil || !sealed {
					t.Fatalf("seal: (%v, %v)", sealed, err)
				}
				seals++
			}
		}
		return seals
	}
	// S0 is itself a product of the append path: it has an appended tail
	// and shares grown columns with its successors.
	feed(30)
	s0 := lg.Snapshot()

	var kinds []*registry.Descriptor
	for _, d := range registry.All() {
		if !d.NeedsGKG {
			kinds = append(kinds, d)
		}
	}
	answers := func() ([][]byte, error) {
		out := make([][]byte, len(kinds))
		for i, d := range kinds {
			p, err := d.ParseParams(func(string) []string { return nil })
			if err != nil {
				return nil, err
			}
			res, err := d.RunSharded(s0.View().WithWorkers(2).WithKind(d.Kind), p)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", d.Kind, err)
			}
			if out[i], err = json.Marshal(res); err != nil {
				return nil, fmt.Errorf("%s: %w", d.Kind, err)
			}
		}
		return out, nil
	}
	want, err := answers()
	if err != nil {
		t.Fatal(err)
	}

	var rounds atomic.Int64
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			got, err := answers()
			if err != nil {
				t.Error(err)
				return
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Errorf("%s: answer on the held snapshot changed while the log moved on", kinds[i].Kind)
				}
			}
			rounds.Add(1)
		}
	}()
	// The writer waits for a reader pass between batches, so reads and
	// writes interleave however fast either side is.
	appended, seals := 0, 0
	for appended < 120 || seals < 2 {
		r := rounds.Load()
		seals += feed(10)
		appended += 10
		for rounds.Load() == r && !t.Failed() {
			runtime.Gosched()
		}
	}
	close(stop)
	<-done
	if lg.Snapshot() == s0 {
		t.Fatal("the log did not move")
	}
}

// TestLogAppendAllocScaling is the scaling guard, as a count rather than a
// timing. The same ticks go into a base world of N and of ~4N articles
// (the archive four times as long). The ticks the feed mostly carries —
// new events and their first mentions, with ids above the stored maximum
// (fresh) or a little below it (late) — must allocate about the same in
// both: nothing in them is proportional to the sealed world. The two ticks
// that reach below the global table's recent run are allowed exactly the
// documented copies: a mention of an old event one int32 metadata column
// of the frozen run and of the sealed part holding the event, an event
// with an id below the recent run the whole table and every event remap.
func TestLogAppendAllocScaling(t *testing.T) {
	type result struct {
		articles, events  int
		fresh, late       uint64
		touch, deepInsert uint64
	}
	measure := func(end gdelt.Timestamp) result {
		cfg := logWorldCfg()
		cfg.End = end
		c, lg, _, cut := feedLog(t, cfg, 2, "")
		snap := lg.Snapshot()
		src := snap.Sources().Name(0)
		k := 0
		tick := func(ids ...int64) uint64 {
			ts := c.IntervalTimestamp(cut + int32(k))
			k++
			var evs []gdelt.Event
			var mns []gdelt.Mention
			for _, id := range ids {
				if snap.Part(0).EventRowByID(id) < 0 {
					evs = append(evs, gdelt.Event{GlobalEventID: id, Day: 20150601, DateAdded: ts,
						SourceURL: "http://fresh.example/x"})
				}
				for n := 0; n < 3; n++ {
					mns = append(mns, gdelt.Mention{GlobalEventID: id, EventTime: ts, MentionTime: ts,
						MentionType: gdelt.MentionTypeWeb, SourceName: src, DocLen: 700, Confidence: 60})
				}
			}
			var a, b runtime.MemStats
			runtime.ReadMemStats(&a)
			if _, err := lg.Append(evs, mns); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&b)
			return b.TotalAlloc - a.TotalAlloc
		}
		r := result{articles: len(c.Mentions), events: snap.EventCount()}
		const rounds, above = 5, int64(1) << 41
		for i := int64(0); i < rounds; i++ {
			r.fresh += tick(above+20*i, above+20*i+10)
		}
		for i := int64(0); i < rounds; i++ {
			r.late += tick(above+20*i+5, above+20*i+15)
		}
		r.fresh /= rounds
		r.late /= rounds
		r.touch = tick(snap.Part(0).Events.ID[0])
		r.deepInsert = tick(1)
		return r
	}
	small, large := measure(20150601000000), measure(20160401000000)
	for _, r := range []result{small, large} {
		t.Logf("N=%d articles/%d events: fresh tick %d B, late tick %d B, old-event tick %d B, low-id tick %d B",
			r.articles, r.events, r.fresh, r.late, r.touch, r.deepInsert)
	}
	if large.articles < 3*small.articles {
		t.Fatalf("worlds too close: %d vs %d articles", small.articles, large.articles)
	}
	for _, kind := range []struct {
		name         string
		small, large uint64
	}{{"fresh", small.fresh, large.fresh}, {"late", small.late, large.late}} {
		if float64(kind.large) >= 1.5*float64(kind.small) {
			t.Errorf("bytes per %s-event Append grew %.2fx for a %.1fx world: something on the append path scales with the sealed world",
				kind.name, float64(kind.large)/float64(kind.small), float64(large.articles)/float64(small.articles))
		}
	}
	// Frozen NumArticles plus part 0's copy, which cannot hold more events
	// than the world: at most 8 B per event.
	if limit := large.fresh + 9*uint64(large.events) + 16<<10; large.touch > limit {
		t.Errorf("old-event tick allocated %d B, more than the documented copy-on-write allows (%d B)", large.touch, limit)
	}
	// The merged table with its row remap (56 B per event) plus the three
	// base parts' shifted l2gEv (4 B per event each, at most).
	if limit := large.fresh + 72*uint64(large.events) + 16<<10; large.deepInsert > limit {
		t.Errorf("low-id tick allocated %d B, more than one re-merge of the global table allows (%d B)", large.deepInsert, limit)
	}
}
