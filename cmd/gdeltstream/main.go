// Command gdeltstream replays a raw GDELT dataset through the real-time
// monitoring engine: ticks — each interval's export and mentions chunks —
// fold in feed order into a partitioned append log (as a live deployment
// folds each 15-minute update), and digital-wildfire alerts print the
// moment a tick carries an event past its distinct-source threshold —
// within one tick of ignition, the latency that matters when tracking
// fast-spreading misinformation.
//
// One loop folds every tick, replayed or live: a stream.LiveRunner polls a
// feed and folds each tick whole or not at all. -in replays a dataset
// directory through an in-process stream.FeedServer that advances one tick
// per poll; -live polls a feed endpoint speaking the real GDELT convention
// (lastupdate.txt for the newest tick, masterfilelist.txt for catch-up)
// once per -poll period. A tick whose chunk cannot be read, or does not
// match its master-list size and CRC, is retried on the next polls and
// after three failed polls skipped: it stays a gap in the log's ledger. A
// tick caught up late within -grace intervals still folds when the log can
// take it. With -checkpoint DIR the append log itself is durable: DIR is
// created on the first run, every seal persists the log's world together
// with its chunk ledger, and a rerun reopens DIR and folds only the ticks
// the ledger lacks. gdeltserve -db DIR serves what the stream folded. A
// compactor seals the log's mutable tail into immutable indexed parts past
// -seal-rows rows or -seal-span intervals.
//
// -serve-feed turns a raw dataset directory into a feed endpoint locally,
// advancing one tick per -feed-tick with optional fault injection
// (outages, duplicate advertisements, reordered drops) for resilience
// drills.
//
// Usage:
//
//	gdeltstream -in ./dataset [-window 8] [-min 5] [-grace 8]
//	            [-checkpoint DIR] [-progress 10000] [-seal-rows N] [-seal-span N]
//	gdeltstream -live http://host:8090 [-poll 2s] [-max-polls N]
//	            [-tick-intervals N] [-seal-rows N] [-seal-span N] [-checkpoint DIR]
//	gdeltstream -in ./dataset -serve-feed :8090 [-feed-tick 2s]
//	            [-feed-outage 0.05] [-feed-dup 0.05] [-feed-drop 0.05]
//
// Exit codes: 0 success, 1 fatal error (or interrupted), 2 usage,
// 3 finished with unresolved missing ticks.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"gdeltmine/internal/faults"
	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/queries"
	"gdeltmine/internal/registry"
	"gdeltmine/internal/report"
	"gdeltmine/internal/shard"
	"gdeltmine/internal/store"
	"gdeltmine/internal/stream"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gdeltstream: ")
	var (
		in       = flag.String("in", "", "raw dataset directory (required)")
		window   = flag.Int("window", 8, "wildfire window in 15-minute intervals")
		minSrc   = flag.Int("min", 5, "distinct sources that trigger an alert")
		grace    = flag.Int("grace", 8, "intervals behind the newest tick a late tick may still fold")
		ckptPath = flag.String("checkpoint", "", "append-log directory: created on the first run, reopened and resumed after")
		progress = flag.Int("progress", 100000, "print progress every N folded articles (0 disables)")
		sealRows = flag.Int("seal-rows", 0, "compactor row threshold (0 = default)")
		sealSpan = flag.Int("seal-span", 0, "compactor age threshold in intervals (0 = default)")

		// Live-feed mode: poll a lastupdate/masterfile endpoint instead of
		// replaying a local directory.
		live     = flag.String("live", "", "live feed base URL; poll it instead of replaying -in")
		poll     = flag.Duration("poll", 2*time.Second, "live mode: poll period")
		maxPolls = flag.Int("max-polls", 0, "stop after N polls (0 = until the replay ends or, live, until interrupted)")
		tickIv   = flag.Int("tick-intervals", 1, "live mode: capture intervals per feed tick")

		// Feed-server mode: serve -in over the live protocol for local drills.
		serveFeed = flag.String("serve-feed", "", "serve -in as a live feed on this address (e.g. :8090)")
		feedTick  = flag.Duration("feed-tick", 2*time.Second, "feed server: wall time per feed tick")
		feedSeed  = flag.Int64("feed-seed", 1, "feed server: fault-injection seed")
		feedOut   = flag.Float64("feed-outage", 0, "feed server: per-tick outage probability")
		feedDup   = flag.Float64("feed-dup", 0, "feed server: per-tick duplicate-advertisement probability")
		feedDrop  = flag.Float64("feed-drop", 0, "feed server: per-tick reordered-drop probability")
	)
	flag.Parse()
	if *in == "" && *live == "" {
		flag.Usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *serveFeed != "" {
		runFeedServer(ctx, *serveFeed, *in, *feedTick, &faults.FeedChaos{
			Seed: *feedSeed, OutageProb: *feedOut, DuplicateProb: *feedDup, DropProb: *feedDrop,
		})
		return
	}
	// The feed and the step between polls are all that tell a replay from
	// a live run: a replay advances its in-process feed by one tick (and
	// keeps polling while the runner still holds ticks), a live run waits
	// out the poll period.
	var (
		feed        stream.Feed
		first, last gdelt.Timestamp
		spacing     int32
		next        func(*stream.LiveRunner) bool
	)
	if *live != "" {
		cl := &stream.FeedClient{Base: *live}
		// The feed's master list bounds the world the append log spans.
		ml, err := cl.MasterList(ctx)
		if err != nil {
			log.Fatalf("reading feed master list: %v", err)
		}
		ticks := stream.Ticks(ml)
		if len(ticks) == 0 {
			log.Fatal("feed master list advertises no parseable chunks")
		}
		t := time.NewTicker(*poll)
		defer t.Stop()
		feed, first, last, spacing = cl, ticks[0].TS, ticks[len(ticks)-1].TS, int32(*tickIv)
		next = func(*stream.LiveRunner) bool {
			select {
			case <-ctx.Done():
				return false
			case <-t.C:
				return true
			}
		}
	} else {
		fs, err := stream.NewFeedServer(*in, nil)
		if err != nil {
			log.Fatal(err)
		}
		n := fs.Ticks()
		if n == 0 {
			log.Fatal("master list advertises no parseable chunks")
		}
		// Ticks sit on a grid of the greatest common spacing, so the runner
		// steps onto every one of them.
		var g int64
		for i := 1; i < n; i++ {
			g = gcd(g, fs.TickTS(i).IntervalIndex()-fs.TickTS(i-1).IntervalIndex())
		}
		fs.Advance()
		feed, first, last, spacing = fs, fs.TickTS(0), fs.TickTS(n-1), int32(max(g, 1))
		next = func(r *stream.LiveRunner) bool {
			return ctx.Err() == nil && (fs.Advance() || r.Pending() > 0)
		}
	}
	fold(ctx, feed, next, first, last, *progress, *maxPolls, *ckptPath,
		stream.Config{Window: int32(*window), MinSources: *minSrc, GraceIntervals: int32(*grace), ChunkIntervals: spacing},
		stream.CompactorConfig{MaxTailRows: *sealRows, MaxTailSpan: int32(*sealSpan)})
}

// gcd returns the greatest common divisor of a and b.
func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// fold polls feed with one LiveRunner, folding every tick into the append
// log with the compactor sealing its tail as it grows, until next reports
// false or maxPolls polls ran. It prints each alert as its tick folds and
// a summary at the end. Exit codes: 0 clean, 1 fatal or interrupted, 3
// finished with unresolved gaps.
func fold(ctx context.Context, feed stream.Feed, next func(*stream.LiveRunner) bool,
	first, last gdelt.Timestamp, progress, maxPolls int, ckptPath string,
	mcfg stream.Config, ccfg stream.CompactorConfig) {
	lg := openLog(ckptPath, first, last, mcfg.ChunkIntervals)
	mon := stream.NewMonitor(lg, mcfg)
	start := lg.Snapshot().Meta().Start
	already := len(lg.Ledger())
	if already > 0 {
		start = mon.ResumePoint(start)
		log.Printf("resuming feed at %s", start)
	}
	runner := stream.NewLiveRunner(feed, mon, start)
	comp := stream.NewCompactor(lg, ccfg)

	began := time.Now()
	mentions := 0
	for polls := 0; maxPolls <= 0 || polls < maxPolls; polls++ {
		// Poll errors are feed weather (an outage beyond the protocol's
		// 503, an unreadable or damaged chunk): log and keep polling — the
		// runner retries and eventually skips a tick it cannot read,
		// leaving a ledger gap that the exit code reports.
		alerts, err := runner.PollOnce(ctx)
		if err != nil && ctx.Err() == nil {
			log.Printf("poll: %v", err)
		}
		for _, a := range alerts {
			fmt.Printf("ALERT interval=%d event=%d sources=%d\n", a.FiredAt, a.EventID, a.Sources)
		}
		st := runner.Stats()
		if progress > 0 && mentions/progress != st.Mentions/progress {
			fmt.Printf("... %d ticks, %s articles folded, %d alerts\n", st.Ticks, report.Int(int64(st.Mentions)), st.Alerts)
		}
		mentions = st.Mentions
		if _, err := comp.RunOnce(); err != nil {
			log.Fatalf("compactor: %v", err)
		}
		if !next(runner) {
			break
		}
	}
	// Seal whatever the tail still holds: the final world is compacted and,
	// with -checkpoint, durable together with its ledger.
	if _, err := lg.Seal(); err != nil {
		log.Fatalf("final seal: %v", err)
	}

	st := runner.Stats()
	fmt.Printf("\nfolded %d ticks (%s articles) in %v: %s late, %d wildfire alerts\n",
		st.Ticks, report.Int(int64(st.Mentions)), time.Since(began).Round(time.Millisecond), report.Int(int64(st.Late)), st.Alerts)
	fmt.Printf("feed: %d polls, %d duplicates, %d outages, %d catch-ups, %d ticks skipped\n",
		st.Polls, st.Duplicates, st.Outages, st.CatchUps, len(st.Skipped))
	if already > 0 {
		fmt.Printf("resumed log: %d ticks already folded\n", already)
	}
	printTotals(lg.Snapshot())
	gaps := mon.Gaps()
	if len(gaps) > 0 {
		fmt.Printf("\nWARNING: %d unresolved missing ticks:\n", len(gaps))
		for i, g := range gaps {
			if i == 10 {
				fmt.Printf("  ... and %d more\n", len(gaps)-10)
				break
			}
			fmt.Printf("  %s\n", g)
		}
	}
	switch {
	case ctx.Err() != nil && ckptPath != "":
		log.Printf("interrupted after %d ticks; log sealed in %s — rerun to resume", st.Ticks, ckptPath)
		os.Exit(1)
	case ctx.Err() != nil:
		log.Print("interrupted")
		os.Exit(1)
	case len(gaps) > 0:
		os.Exit(3)
	}
}

// runFeedServer serves a raw dataset directory over the live feed protocol,
// advancing one tick per -feed-tick period — a local stand-in for the real
// GDELT feed, with optional fault injection for drills: outages, duplicate
// advertisements, reordered drops.
func runFeedServer(ctx context.Context, addr, dir string, tick time.Duration, chaos *faults.FeedChaos) {
	fs, err := stream.NewFeedServer(dir, chaos)
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Addr: addr, Handler: fs}
	go func() {
		<-ctx.Done()
		srv.Close()
	}()
	go func() {
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				if !fs.Advance() {
					log.Printf("feed exhausted at tick %d/%d; still serving", fs.Pos()+1, fs.Ticks())
					return
				}
			}
		}
	}()
	log.Printf("serving %d feed ticks from %s on %s (one tick per %v)", fs.Ticks(), dir, addr, tick)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
}

// openLog returns the append log a run folds into: in memory when dir is
// empty, else the log persisted under dir — reopened when its manifest
// exists, created over an empty world otherwise. The world starts at the
// first tick and reaches a year, or 64 ticks, past the last one: a
// master list observed mid-archive under-advertises what the feed will
// serve, and a seal needs interval range left after the newest data. The
// cost is 2 bytes per capture interval.
func openLog(dir string, first, last gdelt.Timestamp, spacing int32) *shard.Log {
	if dir != "" {
		if _, err := os.Stat(filepath.Join(dir, shard.LogManifestName)); err == nil {
			lg, err := shard.OpenLog(dir)
			if err != nil {
				log.Fatal(err)
			}
			return lg
		}
	}
	headroom := max(64*spacing, int32(366*gdelt.IntervalsPerDay))
	b, err := store.NewBuilder(first, int32(last.IntervalIndex()-first.IntervalIndex())+headroom)
	if err != nil {
		log.Fatal(err)
	}
	db, _, err := b.Finish()
	if err != nil {
		log.Fatal(err)
	}
	sdb, err := shard.Split(db, 1)
	if err != nil {
		log.Fatal(err)
	}
	if dir == "" {
		return shard.NewLog(sdb)
	}
	lg, err := shard.CreateLog(dir, sdb)
	if err != nil {
		log.Fatal(err)
	}
	return lg
}

// printTotals prints what the log holds through the registry kinds a
// server answers with: stats, the slow-article count and the top
// publishers.
func printTotals(s *shard.DB) {
	ds := runKind(s, "stats").(queries.DatasetStats)
	slow := runKind(s, "count", "where", queries.SlowWhere).(registry.CountResult)
	fmt.Printf("log: %s articles, %s events, %d sources; %s slow (>24h)\n",
		report.Int(ds.Articles), report.Int(ds.Events), ds.Sources, report.Int(slow.Articles))
	fmt.Println("most productive sources:")
	for _, p := range runKind(s, "top-publishers", "k", "5").([]registry.PublisherRow) {
		fmt.Printf("  %d. %-32s %s articles\n", p.Rank, p.Source, report.Int(p.Articles))
	}
}

// runKind answers one registry kind on s; kv are parameter name/value
// pairs.
func runKind(s *shard.DB, kind string, kv ...string) any {
	d := registry.MustLookup(kind)
	p, err := d.ParseParams(func(name string) []string {
		for i := 0; i+1 < len(kv); i += 2 {
			if kv[i] == name {
				return kv[i+1 : i+2]
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	out, err := d.RunSharded(s.View().WithKind(kind), p)
	if err != nil {
		log.Fatalf("%s: %v", kind, err)
	}
	return out
}
