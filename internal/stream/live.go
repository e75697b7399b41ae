package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"

	"gdeltmine/internal/gdelt"
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

// Fetch downloads one chunk file and verifies its advertised size and
// CRC-32 before handing it over.
func (c *FeedClient) Fetch(ctx context.Context, e gdelt.MasterEntry) ([]byte, error) {
	data, err := c.get(ctx, e.Path)
	if err != nil {
		return nil, err
	}
	if int64(len(data)) != e.Size {
		return nil, fmt.Errorf("stream: chunk %s: %d bytes, master list says %d", e.Path, len(data), e.Size)
	}
	if got := gdelt.Checksum32(data); got != e.Checksum {
		return nil, fmt.Errorf("stream: chunk %s: checksum %s, master list says %s", e.Path, got, e.Checksum)
	}
	return data, nil
}

// LiveConfig tunes the live poller.
type LiveConfig struct {
	// TickIntervals is the feed's tick spacing in capture intervals
	// (how many 15-minute intervals one file pair covers). 0 means 1.
	TickIntervals int32
	// SkipAfterPolls is how many consecutive polls a tick may stay
	// missing — while newer ticks are already buffered — before the
	// poller declares it lost and moves on (the gap then shows in the
	// log's ledger). Catch-up via the master list is attempted on
	// every such poll first. 0 means 3.
	SkipAfterPolls int
}

func (c LiveConfig) withDefaults() LiveConfig {
	if c.TickIntervals == 0 {
		c.TickIntervals = 1
	}
	if c.SkipAfterPolls == 0 {
		c.SkipAfterPolls = 3
	}
	return c
}

// LiveStats counts what the poller has seen: the feed-health counters.
// They describe one run; the data itself lives in the monitor's log.
type LiveStats struct {
	Polls      int // PollOnce calls
	Ticks      int // ticks fetched, parsed and folded
	Events     int // event records folded
	Mentions   int // mention records folded
	Late       int // mentions folded from ticks behind the ledger's newest mark
	Alerts     int // wildfire alerts the folds fired
	Duplicates int // lastupdate polls re-advertising a known tick
	Outages    int // polls that found the feed down
	CatchUps   int // ticks recovered via the master list
	Skipped    []gdelt.Timestamp
}

// LiveRunner polls a live feed and folds each tick, strictly in feed
// order, through a Monitor into its log. Out-of-order arrivals — the
// reordered-drop fault — are buffered until the missing tick is recovered
// through the master list or given up on; duplicate advertisements are
// dropped by tick timestamp. The runner is single-goroutine: call PollOnce
// from one loop.
type LiveRunner struct {
	cl  *FeedClient
	mon *Monitor
	cfg LiveConfig

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
func NewLiveRunner(cl *FeedClient, mon *Monitor, start gdelt.Timestamp, cfg LiveConfig) *LiveRunner {
	return &LiveRunner{
		cl: cl, mon: mon, cfg: cfg.withDefaults(),
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
// order. A feed outage is not an error — it is counted and the cycle
// continues with whatever is already buffered. Each cycle refreshes the
// chunk-lag and missing-chunk gauges from the ledger.
func (r *LiveRunner) PollOnce(ctx context.Context) error {
	r.stats.Polls++
	defer func() {
		if newest := r.mon.newest(); newest >= 0 {
			mChunkLag.Set(float64(r.head - r.mon.base - newest))
		}
		r.mon.Gaps()
	}()
	entries, err := r.cl.LastUpdate(ctx)
	switch {
	case errors.Is(err, ErrFeedDown):
		r.stats.Outages++
		mLiveOutages.Inc()
	case err != nil:
		return err
	default:
		r.buffer(entries)
	}

	// A tick is "missing" only when a newer one is already buffered — the
	// feed has demonstrably moved past it. While that holds, try the
	// master list (reordered drops surface there late), and after
	// SkipAfterPolls such polls declare the tick lost.
	if r.aheadOfNext() {
		r.stall++
		ml, err := r.cl.MasterList(ctx)
		if err == nil {
			before := len(r.pending)
			r.buffer(ml.Entries)
			if _, ok := r.pending[r.next]; ok {
				r.stats.CatchUps += len(r.pending) - before
				mLiveCatchup.Add(int64(len(r.pending) - before))
			}
		}
		if _, ok := r.pending[r.next]; !ok && r.stall >= r.cfg.SkipAfterPolls {
			ts := gdelt.IntervalStart(r.next)
			r.stats.Skipped = append(r.stats.Skipped, ts)
			mLiveSkipped.Inc()
			r.next += int64(r.cfg.TickIntervals)
			r.stall = 0
		}
	} else {
		r.stall = 0
	}

	// Apply everything applicable, in order. Fetch and parse failures are
	// retryable — the tick stays pending and the next poll tries again —
	// but a tick that keeps failing for SkipAfterPolls polls (an advertised
	// chunk the feed never actually serves) is given up on like a
	// never-advertised one: dropped, recorded, its interval left as a gap
	// in the log's ledger. Fold errors are returned undamped: the fold
	// runs only after a fully successful fetch, and a failed fold leaves
	// the log unmutated, so they signal a logic error, not feed weather.
	for {
		entries, ok := r.pending[r.next]
		if !ok {
			break
		}
		// A restarted poller resumes at the first UNSEEN tick (ResumePoint
		// returns the earliest ledger gap), so every tick the reopened log
		// already holds between that gap and the previous run's frontier
		// comes past here again — folded ticks must be dropped like any
		// duplicate, never re-fetched (the log would refuse them anyway).
		if r.mon.SeenChunk(gdelt.IntervalStart(r.next)) {
			r.stats.Duplicates++
			mLiveDup.Inc()
			delete(r.pending, r.next)
			r.next += int64(r.cfg.TickIntervals)
			r.stall = 0
			continue
		}
		// An unseen tick the monitor can no longer fold (a ledger gap
		// deeper than the grace window or behind the log's newest mention,
		// surfacing only after a restart) is unrecoverable. Skip it BEFORE
		// fetching; the gap stays on the ledger.
		if !r.mon.Foldable(gdelt.IntervalStart(r.next)) {
			r.stats.Skipped = append(r.stats.Skipped, gdelt.IntervalStart(r.next))
			mLiveSkipped.Inc()
			delete(r.pending, r.next)
			r.next += int64(r.cfg.TickIntervals)
			r.stall = 0
			continue
		}
		evs, mns, err := ReadTick(ctx, entries, r.cl.Fetch)
		if err != nil {
			if r.failIv != r.next {
				r.failIv, r.fails = r.next, 0
			}
			if r.fails++; r.fails >= r.cfg.SkipAfterPolls {
				delete(r.pending, r.next)
				r.stats.Skipped = append(r.stats.Skipped, gdelt.IntervalStart(r.next))
				mLiveSkipped.Inc()
				r.next += int64(r.cfg.TickIntervals)
				r.fails = 0
			}
			return err
		}
		r.fails = 0
		f, err := r.mon.Fold(gdelt.IntervalStart(r.next), evs, mns)
		if err != nil {
			return fmt.Errorf("stream: folding tick %s: %w", gdelt.IntervalStart(r.next), err)
		}
		r.stats.Ticks++
		r.stats.Events += len(evs)
		r.stats.Mentions += len(mns)
		if f.Late {
			r.stats.Late += f.AppendedMentions
		}
		r.stats.Alerts += len(f.Alerts)
		mLiveTicks.Inc()
		delete(r.pending, r.next)
		r.next += int64(r.cfg.TickIntervals)
		r.stall = 0
	}
	return nil
}

// buffer files advertised entries under their tick, dropping ticks already
// applied or already buffered (duplicates).
func (r *LiveRunner) buffer(entries []gdelt.MasterEntry) {
	ticks := Ticks(&gdelt.MasterList{Entries: entries})
	for _, tk := range ticks {
		iv := tk.TS.IntervalIndex()
		r.head = max(r.head, iv)
		switch {
		case iv < r.next:
			r.stats.Duplicates++
			mLiveDup.Inc()
		case r.pending[iv] != nil:
			// Re-advertised while buffered: only lastupdate repeats count
			// as duplicates; master-list sightings are the normal case.
			if len(ticks) == 1 {
				r.stats.Duplicates++
				mLiveDup.Inc()
			}
		default:
			r.pending[iv] = tk.Entries
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
