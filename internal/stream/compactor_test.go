package stream

import (
	"errors"
	"slices"
	"testing"

	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/shard"
)

// TestCompactorFailedSealRetries pins RunOnce's error path, the compactor's
// only mode: a seal that fails at the manifest rename returns the error,
// leaves the live log as it was and counts one compactor error; the next
// RunOnce seals, and a reopen of the directory answers like the live
// snapshot.
func TestCompactorFailedSealRetries(t *testing.T) {
	c := streamCorpus(t)
	spacing := int32(c.World.Cfg.IntervalsPerFile)
	ticks := corpusTicks(c, spacing)
	start := gdelt.Timestamp(c.World.Cfg.Start)
	// The seal needs interval range left after the folded data.
	intervals := int32(c.World.Days()*gdelt.IntervalsPerDay) + spacing
	dir := t.TempDir()
	lg, err := shard.CreateLog(dir, emptyWorld(t, start, intervals))
	if err != nil {
		t.Fatal(err)
	}
	// foldTicks seals after every tick; the last tick stays in the tail.
	mon := NewMonitor(lg, Config{Window: 16, MinSources: 3})
	foldTicks(t, mon, ticks[:11])
	if _, err := mon.Fold(ticks[11].ts, ticks[11].evs, ticks[11].mns); err != nil {
		t.Fatal(err)
	}
	comp := NewCompactor(lg, CompactorConfig{MaxTailRows: 1})

	injected := errors.New("injected rename failure")
	lg.SetStepHook(func(op, path string) error {
		if op == shard.OpRenameManifest {
			return injected
		}
		return nil
	})
	snap, rows, ledger := lg.Snapshot(), lg.TailRows(), slices.Clone(lg.Ledger())
	if rows == 0 {
		t.Fatal("nothing folded into the tail; the seal would be a no-op")
	}
	errs := mCompactorErrors.Value()
	sealed, err := comp.RunOnce()
	if !errors.Is(err, injected) || sealed {
		t.Fatalf("failed seal: sealed=%v err=%v, want the injected error", sealed, err)
	}
	if lg.Snapshot() != snap || lg.Snapshot().K() != snap.K() || lg.Snapshot().Tail().Version() != snap.Tail().Version() {
		t.Fatal("a failed seal published a new snapshot")
	}
	if got := lg.TailRows(); got != rows {
		t.Fatalf("tail rows %d after a failed seal, want %d", got, rows)
	}
	if !slices.Equal(lg.Ledger(), ledger) {
		t.Fatalf("ledger %v after a failed seal, want %v", lg.Ledger(), ledger)
	}
	if got := mCompactorErrors.Value(); got != errs+1 {
		t.Fatalf("stream_compactor_errors_total rose by %d, want 1", got-errs)
	}

	lg.SetStepHook(nil)
	if sealed, err := comp.RunOnce(); err != nil || !sealed {
		t.Fatalf("retry: sealed=%v err=%v, want a seal", sealed, err)
	}
	if lg.Snapshot().K() != snap.K()+1 || lg.TailRows() != 0 {
		t.Fatalf("after the retry: K=%d tail rows=%d, want K=%d and an empty tail",
			lg.Snapshot().K(), lg.TailRows(), snap.K()+1)
	}
	re, err := shard.OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(re.Ledger(), lg.Ledger()) {
		t.Fatalf("reopened ledger %v, want %v", re.Ledger(), lg.Ledger())
	}
	sameAnswers(t, kindAnswers(t, re.Snapshot()), kindAnswers(t, lg.Snapshot()), "reopened vs live")
}
