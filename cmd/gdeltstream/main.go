// Command gdeltstream replays a raw GDELT dataset through the real-time
// monitoring engine: ticks — each interval's export and mentions chunks —
// fold in feed order into a partitioned append log (as a live deployment
// folds each 15-minute update), and digital-wildfire alerts print the
// moment a tick carries an event past its distinct-source threshold —
// within one tick of ignition, the latency that matters when tracking
// fast-spreading misinformation.
//
// The replay is fault-tolerant: a tick with an unreadable chunk is not
// folded and is reported as a gap (local file reads fail permanently, so
// they are not retried), a damaged but present chunk folds what parses,
// and a tick caught up late within -grace intervals still folds when the
// log can take it. With -checkpoint DIR the append log itself is durable: DIR is created
// on the first run, every seal persists the log's world together with its
// chunk ledger, and a rerun reopens DIR and folds only the ticks the
// ledger lacks. gdeltserve -db DIR serves what the stream folded.
//
// Beyond replay, two production-cadence modes cover the live loop end to
// end. -live polls a feed endpoint speaking the real GDELT convention
// (lastupdate.txt for the newest tick, masterfilelist.txt for catch-up)
// and folds every tick the same way. -serve-feed turns a raw dataset
// directory into such an endpoint locally, advancing one tick per
// -feed-tick with optional fault injection (outages, duplicate
// advertisements, reordered drops) for resilience drills. In both folding
// modes a compactor seals the log's mutable tail into immutable indexed
// parts past -seal-rows rows or -seal-span intervals.
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
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"gdeltmine/internal/faults"
	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/ingest"
	"gdeltmine/internal/queries"
	"gdeltmine/internal/registry"
	"gdeltmine/internal/report"
	"gdeltmine/internal/retry"
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
		maxPolls = flag.Int("max-polls", 0, "live mode: stop after N polls (0 = until interrupted)")
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

	mcfg := stream.Config{Window: int32(*window), MinSources: *minSrc, GraceIntervals: int32(*grace)}
	ccfg := stream.CompactorConfig{MaxTailRows: *sealRows, MaxTailSpan: int32(*sealSpan)}
	switch {
	case *serveFeed != "":
		runFeedServer(ctx, *serveFeed, *in, *feedTick, &faults.FeedChaos{
			Seed: *feedSeed, OutageProb: *feedOut, DuplicateProb: *feedDup, DropProb: *feedDrop,
		})
	case *live != "":
		mcfg.ChunkIntervals = int32(*tickIv)
		runLive(ctx, *live, mcfg, stream.LiveConfig{TickIntervals: int32(*tickIv)}, ccfg, *poll, *maxPolls, *ckptPath)
	default:
		runReplay(ctx, *in, mcfg, ccfg, *progress, *ckptPath)
	}
}

// runReplay folds the dataset under dir tick by tick, in feed order.
func runReplay(ctx context.Context, dir string, mcfg stream.Config, ccfg stream.CompactorConfig,
	progress int, ckptPath string) {
	f, err := os.Open(filepath.Join(dir, gen.MasterFileName))
	if err != nil {
		log.Fatal(err)
	}
	ml, err := gdelt.ReadMasterList(bufio.NewReader(f))
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	ticks := stream.Ticks(ml)
	if len(ticks) == 0 {
		log.Fatal("master list advertises no parseable chunks")
	}
	spacing := int32(1)
	if len(ticks) > 1 {
		spacing = int32(ticks[1].TS.IntervalIndex() - ticks[0].TS.IntervalIndex())
	}
	lg := openLog(ckptPath, ticks[0].TS, ticks[len(ticks)-1].TS, spacing)
	mon := stream.NewMonitor(lg, mcfg)
	comp := stream.NewCompactor(lg, ccfg)

	reader := &ingest.Reader{Src: ingest.Dir(dir), Retry: retry.DefaultPolicy()}
	read := func(ctx context.Context, e gdelt.MasterEntry) ([]byte, error) {
		data, err := reader.Read(ctx, e)
		var ce *ingest.ChecksumError
		if errors.As(err, &ce) {
			return data, nil // damaged but present: fold what survived
		}
		return data, err
	}

	start := time.Now()
	var folded, already, stale, unreadable, alerts int
	var mentions, late int64
	interrupted := false
	for _, t := range ticks {
		if ctx.Err() != nil {
			interrupted = true
			break
		}
		if mon.SeenChunk(t.TS) {
			already++
			continue
		}
		if !mon.Foldable(t.TS) {
			stale++ // stays a gap in the ledger
			continue
		}
		evs, mns, err := stream.ReadTick(ctx, t.Entries, read)
		if ctx.Err() != nil {
			interrupted = true
			break
		}
		if err != nil {
			unreadable++
			log.Printf("tick %s unreadable: %v", t.TS, err)
			continue // the tick stays unmarked and shows up as a gap
		}
		fd, err := mon.Fold(t.TS, evs, mns)
		if err != nil {
			log.Fatalf("folding tick %s: %v", t.TS, err)
		}
		folded++
		for _, a := range fd.Alerts {
			fmt.Printf("ALERT interval=%d event=%d sources=%d\n", a.FiredAt, a.EventID, a.Sources)
		}
		alerts += len(fd.Alerts)
		n := int64(fd.AppendedMentions)
		if fd.Late {
			late += n
		}
		if progress > 0 && mentions/int64(progress) != (mentions+n)/int64(progress) {
			fmt.Printf("... %d ticks, %s articles folded, %d alerts\n", folded, report.Int(mentions+n), alerts)
		}
		mentions += n
		if _, err := comp.RunOnce(); err != nil {
			log.Fatalf("compactor: %v", err)
		}
	}
	// Seal whatever the tail still holds: the final world is compacted and,
	// with -checkpoint, durable together with its ledger.
	if _, err := lg.Seal(); err != nil {
		log.Fatalf("final seal: %v", err)
	}
	if interrupted {
		if ckptPath != "" {
			log.Printf("interrupted after %d ticks; log sealed in %s — rerun to resume", folded, ckptPath)
		} else {
			log.Print("interrupted")
		}
		os.Exit(1)
	}

	fmt.Printf("\nfolded %d ticks (%s articles) in %v: %s late, %d wildfire alerts\n",
		folded, report.Int(mentions), time.Since(start).Round(time.Millisecond), report.Int(late), alerts)
	if already > 0 {
		fmt.Printf("resumed log: %d ticks already folded\n", already)
	}
	printTotals(lg.Snapshot())
	if gaps := mon.Gaps(); len(gaps) > 0 {
		fmt.Printf("\nWARNING: replay ended with %d unresolved missing ticks (%d unreadable, %d too old to fold):\n",
			len(gaps), unreadable, stale)
		for i, g := range gaps {
			if i == 10 {
				fmt.Printf("  ... and %d more\n", len(gaps)-10)
				break
			}
			fmt.Printf("  %s\n", g)
		}
		os.Exit(3)
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
