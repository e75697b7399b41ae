package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"

	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/ingest"
	"gdeltmine/internal/obs"
)

var (
	mLiveTicks = obs.Default.Counter("stream_live_ticks_total",
		"feed ticks fetched, parsed and folded by the live poller")
	mLiveDup = obs.Default.Counter("stream_live_duplicates_total",
		"lastupdate polls that re-advertised an already-known tick")
	mLiveOutages = obs.Default.Counter("stream_live_outages_total",
		"polls that found the feed endpoint down")
	mLiveCatchup = obs.Default.Counter("stream_live_catchup_total",
		"ticks recovered through the master list after missing from lastupdate")
	mLiveSkipped = obs.Default.Counter("stream_live_skipped_total",
		"ticks given up on after exhausting the catch-up budget")
)

// ErrFeedDown reports that the feed's lastupdate endpoint answered with a
// server error — the outage case, retryable by the next poll.
var ErrFeedDown = errors.New("stream: feed unavailable")

// Feed is what a LiveRunner polls: the GDELT lastupdate/masterfile
// convention plus the chunk files it names. FeedClient speaks it over HTTP,
// FeedServer in-process over a dataset directory.
type Feed interface {
	// LastUpdate returns the newest tick's entries; ErrFeedDown reports an
	// outage the next poll may outlive.
	LastUpdate(ctx context.Context) ([]gdelt.MasterEntry, error)
	// MasterList returns every entry the feed has published so far.
	MasterList(ctx context.Context) (*gdelt.MasterList, error)
	ingest.Source
}

// FeedClient speaks the GDELT lastupdate/masterfile convention against a
// feed base URL.
type FeedClient struct {
	// Base is the feed root, e.g. "http://data.gdeltproject.org/gdeltv2"
	// or a test server URL. No trailing slash.
	Base string
	// HTTP is the client to use; nil means http.DefaultClient.
	HTTP *http.Client
}

func (c *FeedClient) get(ctx context.Context, name string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/"+name, nil)
	if err != nil {
		return nil, err
	}
	h := c.HTTP
	if h == nil {
		h = http.DefaultClient
	}
	resp, err := h.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 500 {
		return nil, fmt.Errorf("%w: %s: %s", ErrFeedDown, name, resp.Status)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stream: feed %s: %s", name, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// LastUpdate fetches and strictly parses the newest tick's file list.
func (c *FeedClient) LastUpdate(ctx context.Context) ([]gdelt.MasterEntry, error) {
	data, err := c.get(ctx, "lastupdate.txt")
	if err != nil {
		return nil, err
	}
	return gdelt.ReadLastUpdate(bytes.NewReader(data))
}

// MasterList fetches the cumulative master file list (tolerant parse — the
// real one carries the malformed lines the paper catalogued).
func (c *FeedClient) MasterList(ctx context.Context) (*gdelt.MasterList, error) {
	data, err := c.get(ctx, "masterfilelist.txt")
	if err != nil {
		return nil, err
	}
	return gdelt.ReadMasterList(bytes.NewReader(data))
}

// ReadChunk downloads one chunk file. The runner checks it against its
// master-list entry.
func (c *FeedClient) ReadChunk(ctx context.Context, path string) ([]byte, error) {
	return c.get(ctx, path)
}

// SkipAfterPolls is how many consecutive polls a tick may stay missing —
// while newer ticks are already buffered — or keep failing to read before
// the poller declares it lost and moves on (the gap then shows in the
// log's ledger). Catch-up via the master list is attempted on every such
// poll first.
const SkipAfterPolls = 3

// LiveStats counts what the poller has seen: the feed-health counters.
// They describe one run; the data itself lives in the monitor's log.
type LiveStats struct {
	Polls      int // PollOnce calls
	Ticks      int // ticks fetched, parsed and folded
	Events     int // event rows the folds appended
	Mentions   int // mention rows the folds appended
	Late       int // mentions folded from ticks behind the ledger's newest mark
	Alerts     int // wildfire alerts the folds fired
	Duplicates int // lastupdate polls re-advertising a known tick, and ticks the log already held
	Outages    int // polls that found the feed down
	CatchUps   int // ticks recovered via the master list
	Skipped    []gdelt.Timestamp
}

// LiveRunner polls a feed and folds each tick, strictly in feed order,
// through a Monitor into its log: the one loop that folds feed ticks, live
// over a FeedClient or as a replay over an in-process FeedServer.
// Out-of-order arrivals — the reordered-drop fault — are buffered until the
// missing tick is recovered through the master list or given up on;
// duplicate advertisements are dropped by tick timestamp. Every chunk is
// read through ingest.Read, which checks it against its master-list
// size and CRC: a damaged chunk fails its tick like an unreadable one. The
// runner is single-goroutine: call PollOnce from one loop.
type LiveRunner struct {
	feed Feed
	mon  *Monitor

	next    int64 // interval index of the next tick to apply
	head    int64 // interval index of the newest tick advertised
	stall   int
	failIv  int64 // tick whose fetch keeps failing
	fails   int   // consecutive fetch failures of failIv
	pending map[int64][]gdelt.MasterEntry
	stats   LiveStats
}

// NewLiveRunner starts polling at the tick whose timestamp is start. Over
// a reopened log, pass Monitor.ResumePoint's result as start so folded
// ticks are not fetched again.
func NewLiveRunner(feed Feed, mon *Monitor, start gdelt.Timestamp) *LiveRunner {
	return &LiveRunner{
		feed: feed, mon: mon,
		next: start.IntervalIndex(), head: start.IntervalIndex(),
		pending: map[int64][]gdelt.MasterEntry{},
	}
}

// Stats returns a snapshot of the poll counters.
func (r *LiveRunner) Stats() LiveStats {
	s := r.stats
	s.Skipped = append([]gdelt.Timestamp(nil), r.stats.Skipped...)
	return s
}

// Pending returns how many fetched-but-not-yet-applicable ticks are
// buffered (newer ticks waiting on a missing older one).
func (r *LiveRunner) Pending() int { return len(r.pending) }

// PollOnce performs one poll cycle: read lastupdate, buffer the advertised
// tick, recover older missing ticks through the master list when newer
// ones are already waiting, and apply every applicable tick in strict feed
// order. It returns the alerts the cycle's folds fired. A feed outage is
// not an error — it is counted and the cycle continues with whatever is
// already buffered. Each cycle refreshes the chunk-lag and missing-chunk
// gauges from the ledger.
func (r *LiveRunner) PollOnce(ctx context.Context) ([]Alert, error) {
	r.stats.Polls++
	defer func() {
		if newest := r.mon.newest(); newest >= 0 {
			mChunkLag.Set(float64(r.head - r.mon.base - newest))
		}
		r.mon.Gaps()
	}()
	entries, err := r.feed.LastUpdate(ctx)
	switch {
	case errors.Is(err, ErrFeedDown):
		r.stats.Outages++
		mLiveOutages.Inc()
	case err != nil:
		return nil, err
	default:
		r.buffer(entries, true)
	}

	// A tick is "missing" only when a newer one is already buffered — the
	// feed has demonstrably moved past it. While that holds, try the
	// master list (reordered drops surface there late), and after
	// SkipAfterPolls such polls declare the tick lost.
	if r.aheadOfNext() {
		r.stall++
		ml, err := r.feed.MasterList(ctx)
		if err == nil {
			before := len(r.pending)
			r.buffer(ml.Entries, false)
			if _, ok := r.pending[r.next]; ok {
				r.stats.CatchUps += len(r.pending) - before
				mLiveCatchup.Add(int64(len(r.pending) - before))
			}
		}
		if _, ok := r.pending[r.next]; !ok && r.stall >= SkipAfterPolls {
			r.skip()
		}
	} else {
		r.stall = 0
	}

	// Apply everything applicable, in order. Read and parse failures are
	// retryable — the tick stays pending and the next poll tries again —
	// but a tick that keeps failing for SkipAfterPolls polls (an advertised
	// chunk the feed never actually serves, or one that fails its
	// master-list check) is given up on like a never-advertised one:
	// dropped, recorded, its interval left as a gap in the log's ledger.
	// Fold errors are returned undamped: the fold runs only after a fully
	// successful read, and a failed fold leaves the log unmutated, so they
	// signal a logic error, not feed weather.
	var alerts []Alert
	for {
		entries, ok := r.pending[r.next]
		if !ok {
			break
		}
		ts := gdelt.IntervalStart(r.next)
		// A restarted poller resumes at the first UNSEEN tick (ResumePoint
		// returns the earliest ledger gap), so every tick the reopened log
		// already holds between that gap and the previous run's frontier
		// comes past here again — folded ticks must be dropped like any
		// duplicate, never re-fetched (the log would refuse them anyway).
		if r.mon.SeenChunk(ts) {
			r.stats.Duplicates++
			mLiveDup.Inc()
			r.advance()
			continue
		}
		// An unseen tick the monitor can no longer fold (a ledger gap
		// deeper than the grace window or behind the log's newest mention,
		// surfacing only after a restart) is unrecoverable. Skip it BEFORE
		// fetching; the gap stays on the ledger.
		if !r.mon.Foldable(ts) {
			r.skip()
			continue
		}
		// Each chunk is read once per poll: retries span polls, bounded by
		// SkipAfterPolls.
		evs, mns, bad, err := ReadTick(ctx, r.feed, entries)
		if err != nil {
			if ctx.Err() != nil {
				return alerts, ctx.Err()
			}
			if r.failIv != r.next {
				r.failIv, r.fails = r.next, 0
			}
			if r.fails++; r.fails >= SkipAfterPolls {
				r.skip()
				r.fails = 0
			}
			return alerts, fmt.Errorf("stream: tick %s: %w", ts, err)
		}
		r.fails = 0
		f, err := r.mon.Fold(ts, evs, mns, bad)
		if err != nil {
			return alerts, fmt.Errorf("stream: folding tick %s: %w", ts, err)
		}
		r.stats.Ticks++
		r.stats.Events += f.AppendedEvents
		r.stats.Mentions += f.AppendedMentions
		if f.Late {
			r.stats.Late += f.AppendedMentions
		}
		r.stats.Alerts += len(f.Alerts)
		alerts = append(alerts, f.Alerts...)
		mLiveTicks.Inc()
		r.advance()
	}
	return alerts, nil
}

// advance moves past the next tick, dropping it from the buffer.
func (r *LiveRunner) advance() {
	delete(r.pending, r.next)
	r.next += int64(r.mon.cfg.ChunkIntervals)
	r.stall = 0
}

// skip gives up on the next tick: it stays a gap in the log's ledger.
func (r *LiveRunner) skip() {
	r.stats.Skipped = append(r.stats.Skipped, gdelt.IntervalStart(r.next))
	mLiveSkipped.Inc()
	r.advance()
}

// buffer files advertised entries under their tick, dropping ticks already
// applied or already buffered. A tick lastUpdate re-advertises that way is a
// duplicate; the master list lists every tick the feed has served, so its
// sightings of them are the normal case and count for nothing.
func (r *LiveRunner) buffer(entries []gdelt.MasterEntry, lastUpdate bool) {
	for _, tk := range Ticks(&gdelt.MasterList{Entries: entries}) {
		iv := tk.TS.IntervalIndex()
		r.head = max(r.head, iv)
		switch {
		case iv >= r.next && r.pending[iv] == nil:
			r.pending[iv] = tk.Entries
		case lastUpdate:
			r.stats.Duplicates++
			mLiveDup.Inc()
		}
	}
}

// aheadOfNext reports whether a tick newer than next is already buffered.
func (r *LiveRunner) aheadOfNext() bool {
	for iv := range r.pending {
		if iv > r.next {
			return true
		}
	}
	return false
}
