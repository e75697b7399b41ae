// Package stream implements the real-time monitoring mode: a Monitor
// consumes the GDELT feed chunk by chunk (the 15-minute update cycle) and
// maintains incremental statistics plus a live digital-wildfire detector.
// It is the streaming counterpart of the batch system — where Lu and
// Szymanski (Section II) stream GDELT for viral-event prediction, this
// monitor incrementally tracks exactly the quantities the batch queries
// compute, so a live deployment can alert within one capture interval of a
// wildfire igniting.
package stream

import (
	"fmt"
	"sort"

	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/obs"
	"gdeltmine/internal/stats"
)

// Monitor observability: process-wide counters for the feed volume plus
// gauges describing the live monitor's health — how far the clock has run
// past the last marked chunk (chunk lag), how many expected intervals are
// still missing, and how much wildfire state is held. When several
// monitors run in one process (tests), the counters aggregate across them
// and the gauges reflect the most recent writer.
var (
	mArticles = obs.Default.Counter("stream_articles_total",
		"mentions folded into stream monitors")
	mLate = obs.Default.Counter("stream_late_articles_total",
		"late mentions accepted within the grace window")
	mAlerts = obs.Default.Counter("stream_alerts_total",
		"wildfire alerts fired")
	mTracked = obs.Default.Gauge("stream_tracked_events",
		"events currently inside the wildfire horizon")
	mChunkLag = obs.Default.Gauge("stream_chunk_lag_intervals",
		"monitor clock minus last marked chunk interval")
	mMissing = obs.Default.Gauge("stream_missing_chunks",
		"expected chunk intervals never marked (open gaps)")
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
	// SlowThreshold classifies slow articles, in intervals. Zero means 96
	// (the 24-hour cycle boundary of Figure 11).
	SlowThreshold int64
	// GraceIntervals tolerates late mentions: a mention up to this many
	// intervals behind the monitor clock (a gap chunk caught up on
	// arrival) is folded into the totals without moving the clock
	// backward. Zero means strict feed order — any regression is an
	// error, the pre-gap-handling behavior.
	GraceIntervals int32
	// ChunkIntervals is the expected spacing of chunk arrivals, for gap
	// detection. Zero infers it from the first two distinct chunk marks.
	ChunkIntervals int32
}

func (c Config) withDefaults() Config {
	if c.Window == 0 {
		c.Window = 8
	}
	if c.MinSources == 0 {
		c.MinSources = 5
	}
	if c.SlowThreshold == 0 {
		c.SlowThreshold = gdelt.IntervalsPerDay
	}
	return c
}

// Alert is a fired wildfire alarm.
type Alert struct {
	// EventID is the global id of the igniting event.
	EventID int64
	// FiredAt is the capture interval at which the threshold was crossed.
	FiredAt int32
	// Sources is the distinct-source count at firing time (== MinSources).
	Sources int
}

// PublisherCount pairs a source with its running article count.
type PublisherCount struct {
	Source   string
	Articles int64
}

// Snapshot is the monitor's current aggregate state.
type Snapshot struct {
	// Interval is the latest capture interval observed.
	Interval int32
	// Events and Articles are running totals.
	Events, Articles int64
	// SlowArticles counts articles with delay above the slow threshold.
	SlowArticles int64
	// TrackedEvents is the number of events currently inside the wildfire
	// horizon (a memory gauge).
	TrackedEvents int
	// LateArticles counts mentions accepted within the grace window after
	// the clock had already passed their interval (gap catch-up).
	LateArticles int64
	// MissingChunks is the number of expected chunk intervals with no
	// arrival so far (open gaps).
	MissingChunks int
	// ApproxMedianDelay is the running P² estimate of the median publishing
	// delay in intervals (O(1) memory; NaN before any articles).
	ApproxMedianDelay float64
	// Alerts lists fired wildfire alarms in firing order.
	Alerts []Alert
}

// eventState tracks one event inside the wildfire horizon.
type eventState struct {
	ignition int32
	sources  map[string]struct{}
	alerted  bool
}

// Monitor incrementally aggregates a time-ordered mention stream.
type Monitor struct {
	cfg  Config
	base int64 // interval index of the archive start

	now          int32
	events       int64
	articles     int64
	slow         int64
	late         int64
	medianDelay  *stats.P2Quantile
	perSource    map[string]int64
	tracked      map[int64]*eventState
	alerts       []Alert
	evictedUpTo  int32
	streamBroken error

	// Chunk-arrival ledger for gap detection: which chunk intervals have
	// been marked, and the observed span of marks.
	chunkSeen             map[int32]struct{}
	firstChunk, lastChunk int32
	haveChunks            bool
}

// NewMonitor returns a monitor for a feed starting at the given timestamp.
func NewMonitor(start gdelt.Timestamp, cfg Config) *Monitor {
	return &Monitor{
		cfg:         cfg.withDefaults(),
		base:        start.IntervalIndex(),
		medianDelay: stats.NewP2Quantile(0.5),
		perSource:   make(map[string]int64),
		tracked:     make(map[int64]*eventState),
		chunkSeen:   make(map[int32]struct{}),
	}
}

// MarkChunk records the arrival of the chunk covering the interval at ts.
// The feeder calls it once per chunk it manages to read — including late
// reads that resolve an earlier gap. Gaps() reports the expected intervals
// never marked.
func (m *Monitor) MarkChunk(ts gdelt.Timestamp) {
	iv := int32(ts.IntervalIndex() - m.base)
	if !m.haveChunks || iv < m.firstChunk {
		m.firstChunk = iv
	}
	if !m.haveChunks || iv > m.lastChunk {
		m.lastChunk = iv
	}
	m.haveChunks = true
	m.chunkSeen[iv] = struct{}{}
	mChunkLag.Set(float64(m.now - m.lastChunk))
}

// SeenChunk reports whether the chunk covering ts was already marked —
// the test a resumed monitor uses to replay only unseen intervals.
func (m *Monitor) SeenChunk(ts gdelt.Timestamp) bool {
	_, ok := m.chunkSeen[int32(ts.IntervalIndex()-m.base)]
	return ok
}

// Foldable reports whether a chunk starting at ts could still be folded:
// at or ahead of the clock, or behind it within the grace window. A
// resumed or catching-up feeder uses it to recognize gaps too old to
// recover — ObserveMention rejects clock regressions deeper than grace,
// so folding such a chunk would break the stream.
func (m *Monitor) Foldable(ts gdelt.Timestamp) bool {
	iv := int32(ts.IntervalIndex() - m.base)
	return m.now-iv <= m.cfg.GraceIntervals
}

// chunkSpacing returns the expected gap between chunk marks: the
// configured value, or the smallest observed spacing, or 0 when fewer than
// two distinct marks exist (no gap detection possible yet).
func (m *Monitor) chunkSpacing() int32 {
	if m.cfg.ChunkIntervals > 0 {
		return m.cfg.ChunkIntervals
	}
	spacing := int32(0)
	marks := m.sortedMarks()
	for i := 1; i < len(marks); i++ {
		if d := marks[i] - marks[i-1]; d > 0 && (spacing == 0 || d < spacing) {
			spacing = d
		}
	}
	return spacing
}

func (m *Monitor) sortedMarks() []int32 {
	marks := make([]int32, 0, len(m.chunkSeen))
	for iv := range m.chunkSeen {
		marks = append(marks, iv)
	}
	sort.Slice(marks, func(a, b int) bool { return marks[a] < marks[b] })
	return marks
}

// Gaps returns the start timestamps of expected chunk intervals between
// the first and last marked chunk that never arrived, in feed order. A
// late chunk that was eventually marked no longer counts as a gap.
func (m *Monitor) Gaps() []gdelt.Timestamp {
	spacing := m.chunkSpacing()
	if spacing <= 0 || !m.haveChunks {
		return nil
	}
	var out []gdelt.Timestamp
	for iv := m.firstChunk; iv < m.lastChunk; iv += spacing {
		if _, ok := m.chunkSeen[iv]; !ok {
			out = append(out, gdelt.IntervalStart(m.base+int64(iv)))
		}
	}
	return out
}

// ObserveEvent folds a newly published event row into the running totals.
func (m *Monitor) ObserveEvent(ev *gdelt.Event) {
	m.events++
}

// ObserveMention folds one article. Mentions must arrive in non-decreasing
// capture-interval order (the natural order of the 15-minute feed); a
// regression within Config.GraceIntervals is accepted as a late gap
// catch-up (counted, clock unchanged), while a deeper regression is
// reported as an error and the mention is dropped.
func (m *Monitor) ObserveMention(mn *gdelt.Mention) error {
	iv := int32(mn.MentionTime.IntervalIndex() - m.base)
	if iv < m.now {
		if m.now-iv > m.cfg.GraceIntervals {
			err := fmt.Errorf("stream: mention at interval %d after clock reached %d (grace %d)",
				iv, m.now, m.cfg.GraceIntervals)
			m.streamBroken = err
			return err
		}
		m.late++
		mLate.Inc()
	}
	if iv > m.now {
		m.advance(iv)
	}
	m.articles++
	mArticles.Inc()
	m.perSource[mn.SourceName]++
	delay := mn.Delay()
	m.medianDelay.Add(float64(delay))
	if delay > m.cfg.SlowThreshold {
		m.slow++
	}

	// Wildfire tracking: only articles within the window of the event's
	// ignition count.
	evIv := int32(mn.EventTime.IntervalIndex() - m.base)
	if iv-evIv >= m.cfg.Window {
		return nil
	}
	if evIv < m.evictedUpTo {
		// A late mention of an event already evicted from the horizon:
		// its window state is gone, so it cannot contribute to an alert.
		return nil
	}
	st, ok := m.tracked[mn.GlobalEventID]
	if !ok {
		st = &eventState{ignition: evIv, sources: make(map[string]struct{}, 4)}
		m.tracked[mn.GlobalEventID] = st
	}
	st.sources[mn.SourceName] = struct{}{}
	if !st.alerted && len(st.sources) >= m.cfg.MinSources {
		st.alerted = true
		m.alerts = append(m.alerts, Alert{EventID: mn.GlobalEventID, FiredAt: iv, Sources: len(st.sources)})
		mAlerts.Inc()
	}
	mTracked.Set(float64(len(m.tracked)))
	return nil
}

// advance moves the monitor clock forward and evicts events that fell out
// of the wildfire horizon, bounding tracked state to the active window.
func (m *Monitor) advance(iv int32) {
	m.now = iv
	if m.haveChunks {
		mChunkLag.Set(float64(m.now - m.lastChunk))
	}
	cutoff := iv - m.cfg.Window
	if cutoff <= m.evictedUpTo {
		return
	}
	for id, st := range m.tracked {
		if st.ignition < cutoff {
			delete(m.tracked, id)
		}
	}
	m.evictedUpTo = cutoff
}

// Snapshot returns the current aggregate state. Taking a snapshot also
// refreshes the stream_missing_chunks gauge, whose value requires the
// (non-constant-time) gap walk.
func (m *Monitor) Snapshot() Snapshot {
	gaps := len(m.Gaps())
	mMissing.Set(float64(gaps))
	return Snapshot{
		Interval:          m.now,
		Events:            m.events,
		Articles:          m.articles,
		SlowArticles:      m.slow,
		TrackedEvents:     len(m.tracked),
		LateArticles:      m.late,
		MissingChunks:     gaps,
		ApproxMedianDelay: m.medianDelay.Value(),
		Alerts:            append([]Alert(nil), m.alerts...),
	}
}

// TopPublishers returns the k most productive sources observed so far.
func (m *Monitor) TopPublishers(k int) []PublisherCount {
	out := make([]PublisherCount, 0, len(m.perSource))
	for s, n := range m.perSource {
		out = append(out, PublisherCount{Source: s, Articles: n})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Articles != out[b].Articles {
			return out[a].Articles > out[b].Articles
		}
		return out[a].Source < out[b].Source
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// Err returns the first stream-order violation seen, if any.
func (m *Monitor) Err() error { return m.streamBroken }
