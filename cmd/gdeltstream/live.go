package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"gdeltmine/internal/faults"
	"gdeltmine/internal/report"
	"gdeltmine/internal/stream"
)

// runLive polls a live feed endpoint (the real GDELT lastupdate/masterfile
// convention, or this command's own -serve-feed) and folds every tick into
// the append log, with the compactor sealing the tail as it grows. Exit
// codes match the replay path: 0 clean, 1 fatal/interrupted, 3 finished
// with unresolved gaps.
func runLive(ctx context.Context, base string, mcfg stream.Config, lcfg stream.LiveConfig,
	ccfg stream.CompactorConfig, poll time.Duration, maxPolls int, ckptPath string) {
	cl := &stream.FeedClient{Base: base}

	// The feed's master list bounds the world the append log spans.
	ml, err := cl.MasterList(ctx)
	if err != nil {
		log.Fatalf("reading feed master list: %v", err)
	}
	ticks := stream.Ticks(ml)
	if len(ticks) == 0 {
		log.Fatal("feed master list advertises no parseable chunks")
	}
	lg := openLog(ckptPath, ticks[0].TS, ticks[len(ticks)-1].TS, lcfg.TickIntervals)
	mon := stream.NewMonitor(lg, mcfg)
	start := lg.Snapshot().Meta().Start
	if len(lg.Ledger()) > 0 {
		start = mon.ResumePoint(start, lcfg.TickIntervals)
		log.Printf("resuming live feed at %s", start)
	}

	runner := stream.NewLiveRunner(cl, mon, start, lcfg)
	comp := stream.NewCompactor(lg, ccfg)
	t := time.NewTicker(poll)
	defer t.Stop()
	interrupted := false
	for polls := 0; maxPolls <= 0 || polls < maxPolls; polls++ {
		// Poll errors are feed weather (outage beyond the protocol's 503,
		// unfetchable chunk): log and keep polling — the runner retries and
		// eventually skips a tick the feed never serves, leaving a ledger
		// gap that the exit code reports.
		if err := runner.PollOnce(ctx); err != nil {
			log.Printf("poll: %v", err)
		}
		if _, err := comp.RunOnce(); err != nil {
			log.Fatalf("compactor: %v", err)
		}
		select {
		case <-ctx.Done():
			interrupted = true
		case <-t.C:
		}
		if interrupted {
			break
		}
	}
	// Seal whatever the tail still holds so the final world is compacted
	// and, with -checkpoint, durable together with its ledger.
	if _, err := lg.Seal(); err != nil {
		log.Fatalf("final seal: %v", err)
	}

	st := runner.Stats()
	fmt.Printf("\nlive: %d polls, %d ticks folded (%s events, %s mentions, %s late), %d duplicates, %d outages, %d catch-ups, %d wildfire alerts\n",
		st.Polls, st.Ticks, report.Int(int64(st.Events)), report.Int(int64(st.Mentions)), report.Int(int64(st.Late)),
		st.Duplicates, st.Outages, st.CatchUps, st.Alerts)
	fmt.Printf("log: %d shards, %d ticks in the ledger\n", lg.Snapshot().K(), len(lg.Ledger()))
	printTotals(lg.Snapshot())
	if len(st.Skipped) > 0 {
		fmt.Printf("WARNING: %d ticks skipped after repeated stalls: %v\n", len(st.Skipped), st.Skipped)
	}
	if interrupted {
		log.Print("interrupted")
		os.Exit(1)
	}
	if gaps := mon.Gaps(); len(gaps) > 0 {
		fmt.Printf("WARNING: %d unresolved missing intervals\n", len(gaps))
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
