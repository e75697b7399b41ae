// Package stream implements the real-time monitoring mode. Feed ticks —
// one GDELT update each, an export and a mentions file — fold whole into a
// shard.Log, the only state a stream keeps: the log holds the rows, its
// chunk ledger records which ticks they came from, and a seal persists both
// at once, so a restarted stream reopens the log and resumes at the first
// tick the ledger lacks. Wildfire alerts are read off the log as well:
// after each tick, every event the tick mentions is counted on the
// snapshots before and after the fold with the wildfires query's own
// per-event count, and an alert fires when the count crosses the
// threshold — within one tick of a wildfire igniting, the latency that
// matters when tracking fast-spreading misinformation. Where Lu and
// Szymanski (Section II) stream GDELT for viral-event prediction, this
// monitor serves the batch queries' answers as the feed arrives.
package stream

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"

	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/ingest"
	"gdeltmine/internal/obs"
	"gdeltmine/internal/shard"
	"gdeltmine/internal/store"
)

// Stream observability: counters for late mentions and fired alerts, and
// gauges read from the chunk ledger — how far the newest advertised tick
// is past the ledger's newest mark (chunk lag) and how many expected ticks
// the ledger lacks. When several monitors run in one process (tests), the
// counters aggregate across them and the gauges reflect the most recent
// writer.
var (
	mLate = obs.Default.Counter("stream_late_articles_total",
		"mentions folded from ticks behind the ledger's newest mark, within the grace window")
	mAlerts = obs.Default.Counter("stream_alerts_total",
		"wildfire alerts fired")
	mChunkLag = obs.Default.Gauge("stream_chunk_lag_intervals",
		"newest advertised feed tick minus the ledger's newest mark, in intervals")
	mMissing = obs.Default.Gauge("stream_missing_chunks",
		"expected ticks between the ledger's first and newest marks that it lacks (open gaps)")
)

// Config tunes the monitor.
type Config struct {
	// Window is the wildfire detection window in capture intervals: only
	// articles within Window of the event ignition count toward an alert.
	// Zero means 8 (two hours).
	Window int32
	// MinSources is the distinct-source threshold that fires an alert.
	// Zero means 5.
	MinSources int
	// GraceIntervals tolerates late ticks: a tick starting up to this many
	// intervals behind the ledger's newest mark (a gap chunk caught up on
	// arrival) may still fold, and its mentions count as late. Zero means
	// strict feed order. A late tick folds only where the log can take it
	// — its mentions must not fall behind the log's newest mention, the
	// tail's time order — and is otherwise stale like one beyond grace.
	GraceIntervals int32
	// ChunkIntervals is the feed's tick spacing in capture intervals (how
	// many 15-minute intervals one file pair covers): where gap detection
	// expects ticks, and how far a LiveRunner or ResumePoint steps.
	// Values below 1 mean 1.
	ChunkIntervals int32
}

func (c Config) withDefaults() Config {
	if c.Window == 0 {
		c.Window = 8
	}
	if c.MinSources == 0 {
		c.MinSources = 5
	}
	if c.ChunkIntervals < 1 {
		c.ChunkIntervals = 1
	}
	return c
}

// Alert is a fired wildfire alarm.
type Alert struct {
	// EventID is the global id of the igniting event.
	EventID int64
	// FiredAt is the capture interval of the tick whose fold crossed the
	// threshold.
	FiredAt int32
	// Sources is the event's distinct early-source count after that tick:
	// at least MinSources, more when one tick brought several sources.
	Sources int
}

// ErrStale reports a tick the monitor no longer folds: further behind the
// ledger's newest mark than the grace window, or behind the log's newest
// mention. Nothing of it is appended; it stays a gap in the ledger.
var ErrStale = errors.New("stream: tick too old to fold")

// Folded reports one tick's fold.
type Folded struct {
	store.AppendStats
	// Late is set when the tick started behind the ledger's newest mark.
	Late bool
	// Alerts lists the events the tick made wildfires, by event id.
	Alerts []Alert
}

// Monitor folds feed ticks into a shard.Log and reads wildfire alerts off
// the snapshots on either side of each fold. It keeps no state of its own:
// the ledger, the rows and the counts alerts compare all live in the log,
// so a monitor over a reopened log carries on where the last one stopped.
// Fold is for one goroutine; a compactor may seal the log concurrently.
type Monitor struct {
	lg   *shard.Log
	cfg  Config
	base int64 // interval index of the log's archive start
}

// NewMonitor returns a monitor folding into lg.
func NewMonitor(lg *shard.Log, cfg Config) *Monitor {
	return &Monitor{lg: lg, cfg: cfg.withDefaults(), base: lg.Snapshot().Meta().Start.IntervalIndex()}
}

// newest returns the ledger's newest mark as an archive offset, or -1
// while the ledger is empty.
func (m *Monitor) newest() int64 {
	marks := m.lg.Ledger()
	if len(marks) == 0 {
		return -1
	}
	return int64(marks[len(marks)-1])
}

// SeenChunk reports whether the ledger holds the tick starting at ts.
func (m *Monitor) SeenChunk(ts gdelt.Timestamp) bool {
	iv := ts.IntervalIndex() - m.base
	if iv < 0 || iv > 1<<31-1 {
		return false
	}
	_, ok := slices.BinarySearch(m.lg.Ledger(), int32(iv))
	return ok
}

// Foldable reports whether a tick starting at ts could still fold: within
// the grace window of the ledger's newest mark and at or past the log's
// newest mention. A resumed or catching-up feeder uses it to give up on
// gaps too old to recover before fetching them.
func (m *Monitor) Foldable(ts gdelt.Timestamp) bool {
	iv := ts.IntervalIndex() - m.base
	if newest := m.newest(); newest-iv > int64(m.cfg.GraceIntervals) {
		return false
	}
	s := m.lg.Snapshot()
	floor := s.Bounds()[s.K()-1]
	if t := s.Tail().Mentions; t.Len() > 0 {
		floor = max(floor, t.Interval[t.Len()-1])
	}
	return iv >= int64(floor)
}

// ResumePoint returns the first tick at or after start, stepping
// ChunkIntervals, that the ledger does not hold: where a restarted feeder
// resumes so no folded tick is fetched again.
func (m *Monitor) ResumePoint(start gdelt.Timestamp) gdelt.Timestamp {
	for m.SeenChunk(start) {
		start = gdelt.IntervalStart(start.IntervalIndex() + int64(m.cfg.ChunkIntervals))
	}
	return start
}

// Gaps returns the start of every expected tick between the ledger's first
// and newest marks that the ledger lacks, in feed order, and refreshes the
// stream_missing_chunks gauge. Expected ticks are ChunkIntervals apart.
func (m *Monitor) Gaps() []gdelt.Timestamp {
	marks := m.lg.Ledger()
	var out []gdelt.Timestamp
	if len(marks) > 0 {
		i := 0
		for iv := marks[0]; iv < marks[len(marks)-1]; iv += m.cfg.ChunkIntervals {
			for marks[i] < iv {
				i++
			}
			if marks[i] != iv {
				out = append(out, gdelt.IntervalStart(m.base+int64(iv)))
			}
		}
	}
	mMissing.Set(float64(len(out)))
	return out
}

// Fold appends one whole tick starting at ts to the log, marking it in the
// ledger and filing bad, the tick's rows that did not parse (ReadTick), in
// the world's report. It returns the alerts the tick fired: the events it
// mentions whose distinct early-source count (shard.DB.EarlySources, the
// wildfires count) was below MinSources before the fold and is at least
// MinSources after it. A stale tick is refused with ErrStale before anything is
// appended.
func (m *Monitor) Fold(ts gdelt.Timestamp, evs []gdelt.Event, mns []gdelt.Mention, bad []string) (Folded, error) {
	if !m.Foldable(ts) {
		return Folded{}, fmt.Errorf("%w: %s", ErrStale, ts)
	}
	iv := ts.IntervalIndex() - m.base
	f := Folded{Late: iv < m.newest()}
	ids := make([]int64, len(mns))
	for i := range mns {
		ids[i] = mns[i].GlobalEventID
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)

	before := m.lg.Snapshot()
	var err error
	if f.AppendStats, err = m.lg.AppendTick(ts, evs, mns, bad); err != nil {
		return Folded{}, err
	}
	var hot []int64
	var counts []int
	for i, n := range m.lg.Snapshot().EarlySources(ids, m.cfg.Window) {
		if n >= m.cfg.MinSources {
			hot, counts = append(hot, ids[i]), append(counts, n)
		}
	}
	for i, n := range before.EarlySources(hot, m.cfg.Window) {
		if n < m.cfg.MinSources {
			f.Alerts = append(f.Alerts, Alert{EventID: hot[i], FiredAt: int32(iv), Sources: counts[i]})
		}
	}
	if f.Late {
		mLate.Add(int64(f.AppendedMentions))
	}
	mAlerts.Add(int64(len(f.Alerts)))
	return f, nil
}

// ReadTick reads one tick's export and mentions files from src through
// ingest.Read, which checks each against its master-list size and CRC, and
// parses their rows with gdelt.ParseChunk; GKG files are not read, since
// appends extend the event and mention tables only. A row that does not
// parse is returned in bad as "<chunk path>: <error>", the text the batch
// converter files as its Table II bad row. A read error fails the whole
// tick, so nothing of it folds and a retry or a later run can fold it
// whole.
func ReadTick(ctx context.Context, src ingest.Source, entries []gdelt.MasterEntry) (evs []gdelt.Event, mns []gdelt.Mention, bad []string, err error) {
	for _, e := range entries {
		kind := e.Kind()
		if kind != "export" && kind != "mentions" {
			continue
		}
		data, err := ingest.Read(ctx, src, e)
		if err != nil {
			return nil, nil, nil, err
		}
		_ = gdelt.ParseChunk(kind, data, gdelt.ChunkSink{ // kind is known: ParseChunk cannot fail
			Event:   func(ev gdelt.Event) { evs = append(evs, ev) },
			Mention: func(mn gdelt.Mention) { mns = append(mns, mn) },
			BadRow:  func(err error) { bad = append(bad, fmt.Sprintf("%s: %v", e.Path, err)) },
		})
	}
	return evs, mns, bad, nil
}

// Tick is one feed update: where it starts and its chunk files.
type Tick struct {
	TS      gdelt.Timestamp
	Entries []gdelt.MasterEntry
}

// Ticks groups a master list's entries by the tick they start, in feed
// order. Entries whose name carries no timestamp are left out, and a path
// listed twice is kept once, as the batch converter keeps it.
func Ticks(ml *gdelt.MasterList) []Tick {
	byTS := map[gdelt.Timestamp][]gdelt.MasterEntry{}
	seen := map[string]bool{}
	for _, e := range ml.Entries {
		if ts, err := e.Interval(); err == nil && !seen[e.Path] {
			seen[e.Path] = true
			byTS[ts] = append(byTS[ts], e)
		}
	}
	out := make([]Tick, 0, len(byTS))
	for ts, entries := range byTS {
		out = append(out, Tick{TS: ts, Entries: entries})
	}
	slices.SortFunc(out, func(a, b Tick) int { return cmp.Compare(a.TS, b.TS) })
	return out
}
