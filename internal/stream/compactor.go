package stream

import (
	"time"

	"gdeltmine/internal/obs"
	"gdeltmine/internal/shard"
)

var (
	mCompactorSeals = obs.Default.Counter("stream_compactor_seals_total",
		"tail shards sealed into immutable indexed parts")
	mCompactorErrors = obs.Default.Counter("stream_compactor_errors_total",
		"compactor seal attempts that failed")
	mCompactorRewrite = obs.Default.Histogram("stream_compactor_rewrite_seconds",
		"wall time of one seal: slice, index rebuild, crash-safe persist", obs.LatencyBuckets)
	mTailRows = obs.Default.Gauge("stream_tail_rows",
		"mention rows currently held by the mutable tail shard")
	mCompactionLag = obs.Default.Gauge("stream_compaction_lag_intervals",
		"capture intervals of data accumulated in the tail since the last seal")
)

// CompactorConfig sets the seal thresholds of the compactor.
type CompactorConfig struct {
	// MaxTailRows seals the tail once it holds at least this many mention
	// rows (size threshold). 0 means 50000.
	MaxTailRows int
	// MaxTailSpan seals the tail once its data spans at least this many
	// capture intervals (age threshold — one day is 96). 0 means 96.
	MaxTailSpan int32
}

func (c CompactorConfig) withDefaults() CompactorConfig {
	if c.MaxTailRows == 0 {
		c.MaxTailRows = 50000
	}
	if c.MaxTailSpan == 0 {
		c.MaxTailSpan = 96
	}
	return c
}

// Compactor seals a Log's mutable tail into immutable sorted parts once it
// crosses a size or age threshold. Appends stay cheap because the tail is
// small, queries stay fast because sealed parts carry full derived indexes,
// and the seal itself is crash-safe (shard.Log's persist protocol). The
// writer calls RunOnce after each append (gdeltstream's replay and live
// loops, the benchmark's feeder); a failed seal leaves the log servable on
// the old world, and the next RunOnce tries again.
type Compactor struct {
	lg  *shard.Log
	cfg CompactorConfig
}

// NewCompactor returns a compactor over lg. Nothing runs until RunOnce is
// called.
func NewCompactor(lg *shard.Log, cfg CompactorConfig) *Compactor {
	return &Compactor{lg: lg, cfg: cfg.withDefaults()}
}

// RunOnce checks the thresholds and seals at most once, reporting whether
// a seal happened. The tail gauges are refreshed on every call, sealed or
// not, so dashboards see compaction lag grow between seals.
func (c *Compactor) RunOnce() (bool, error) {
	rows, span := c.lg.TailRows(), c.lg.TailSpan()
	mTailRows.Set(float64(rows))
	mCompactionLag.Set(float64(span))
	if rows == 0 || (rows < c.cfg.MaxTailRows && span < c.cfg.MaxTailSpan) {
		return false, nil
	}
	start := time.Now()
	sealed, err := c.lg.Seal()
	if err != nil {
		mCompactorErrors.Inc()
		return false, err
	}
	if sealed {
		mCompactorSeals.Inc()
		mCompactorRewrite.ObserveSince(start)
		mTailRows.Set(float64(c.lg.TailRows()))
		mCompactionLag.Set(float64(c.lg.TailSpan()))
	}
	return sealed, nil
}
