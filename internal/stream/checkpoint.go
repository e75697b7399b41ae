package stream

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/stats"
)

// checkpointVersion guards the snapshot layout.
const checkpointVersion = 1

// TrackedEvent is the serialized wildfire-horizon state of one event.
type TrackedEvent struct {
	EventID  int64    `json:"eventId"`
	Ignition int32    `json:"ignition"`
	Sources  []string `json:"sources"`
	Alerted  bool     `json:"alerted"`
}

// Checkpoint is a complete, JSON-serializable snapshot of a Monitor. A
// monitor restored from it and fed the not-yet-seen intervals produces
// exactly the state an uninterrupted monitor would have reached — the
// restart path of a long-running feed deployment.
type Checkpoint struct {
	Version   int              `json:"version"`
	Start     gdelt.Timestamp  `json:"start"`
	Config    Config           `json:"config"`
	Now       int32            `json:"now"`
	Events    int64            `json:"events"`
	Articles  int64            `json:"articles"`
	Slow      int64            `json:"slow"`
	Late      int64            `json:"late"`
	Evicted   int32            `json:"evictedUpTo"`
	Median    stats.P2State    `json:"median"`
	PerSource map[string]int64 `json:"perSource"`
	Tracked   []TrackedEvent   `json:"tracked"`
	Alerts    []Alert          `json:"alerts"`
	// Chunks lists the marked chunk intervals (offsets from Start).
	Chunks []int32 `json:"chunks"`
}

// Checkpoint captures the monitor's full state.
func (m *Monitor) Checkpoint() *Checkpoint {
	cp := &Checkpoint{
		Version:   checkpointVersion,
		Start:     gdelt.IntervalStart(m.base),
		Config:    m.cfg,
		Now:       m.now,
		Events:    m.events,
		Articles:  m.articles,
		Slow:      m.slow,
		Late:      m.late,
		Evicted:   m.evictedUpTo,
		Median:    m.medianDelay.State(),
		PerSource: make(map[string]int64, len(m.perSource)),
		Alerts:    append([]Alert(nil), m.alerts...),
		Chunks:    m.sortedMarks(),
	}
	for s, n := range m.perSource {
		cp.PerSource[s] = n
	}
	for id, st := range m.tracked {
		te := TrackedEvent{EventID: id, Ignition: st.ignition, Alerted: st.alerted}
		for s := range st.sources {
			te.Sources = append(te.Sources, s)
		}
		cp.Tracked = append(cp.Tracked, te)
	}
	return cp
}

// FromCheckpoint rebuilds a monitor from a snapshot, rejecting states no
// monitor writes.
func FromCheckpoint(cp *Checkpoint) (*Monitor, error) {
	if cp.Version != checkpointVersion {
		return nil, fmt.Errorf("stream: checkpoint version %d, want %d", cp.Version, checkpointVersion)
	}
	if q := cp.Median.Q; !(q > 0 && q < 1) {
		return nil, fmt.Errorf("stream: checkpoint median quantile %v outside (0, 1)", q)
	}
	// The estimator primes on its fifth observation; an unprimed state
	// holding five or more would never prime and buffer without bound.
	if !cp.Median.Primed && len(cp.Median.InitBuf) >= 5 {
		return nil, fmt.Errorf("stream: checkpoint median holds %d unprimed observations", len(cp.Median.InitBuf))
	}
	m := NewMonitor(cp.Start, cp.Config)
	m.now = cp.Now
	m.events = cp.Events
	m.articles = cp.Articles
	m.slow = cp.Slow
	m.late = cp.Late
	m.evictedUpTo = cp.Evicted
	m.medianDelay = stats.P2FromState(cp.Median)
	for s, n := range cp.PerSource {
		m.perSource[s] = n
	}
	for _, te := range cp.Tracked {
		st := &eventState{ignition: te.Ignition, alerted: te.Alerted, sources: make(map[string]struct{}, len(te.Sources))}
		for _, s := range te.Sources {
			st.sources[s] = struct{}{}
		}
		m.tracked[te.EventID] = st
	}
	m.alerts = append([]Alert(nil), cp.Alerts...)
	for _, iv := range cp.Chunks {
		m.MarkChunk(gdelt.IntervalStart(m.base + int64(iv)))
	}
	return m, nil
}

// WriteFile atomically and durably persists the checkpoint as JSON: the
// payload is written to a temp file, fsynced, renamed into place, and the
// parent directory is fsynced last. Without that final directory sync a
// power cut after the rename could resurrect the previous checkpoint — the
// rename lives in the directory, and an unsynced directory entry is
// allowed to roll back — which would silently replay chunks the monitor
// had already counted.
func (cp *Checkpoint) WriteFile(path string) error {
	data, err := json.Marshal(cp)
	if err != nil {
		return fmt.Errorf("stream: encoding checkpoint: %w", err)
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("stream: writing checkpoint: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("stream: writing checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("stream: syncing checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("stream: closing checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	if err := fsyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("stream: syncing checkpoint dir: %w", err)
	}
	return nil
}

// fsyncDir makes a rename within dir durable. Swappable so the regression
// test can observe that (and when) the directory sync happens.
var fsyncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadCheckpointFile loads a checkpoint written by WriteFile.
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cp := &Checkpoint{}
	if err := json.Unmarshal(data, cp); err != nil {
		return nil, fmt.Errorf("stream: decoding checkpoint %s: %w", path, err)
	}
	return cp, nil
}
