package stream

import (
	"os"
	"path/filepath"
	"testing"

	"gdeltmine/internal/gdelt"
)

// tornMonitor builds a monitor with enough state that a truncated
// checkpoint cannot accidentally remain valid JSON.
func tornMonitor(t testing.TB) *Monitor {
	t.Helper()
	base := gdelt.Timestamp(testBase)
	m := NewMonitor(base, Config{Window: 16, MinSources: 3, GraceIntervals: 8, ChunkIntervals: 1})
	ev := gdelt.Event{GlobalEventID: 1}
	m.ObserveEvent(&ev)
	for i, src := range []string{"a.com", "b.com", "c.com", "d.com"} {
		mn := mention(base, 1, 0, int64(i), src)
		if err := m.ObserveMention(&mn); err != nil {
			t.Fatal(err)
		}
	}
	m.MarkChunk(ivTS(base, 0))
	m.MarkChunk(ivTS(base, 1))
	return m
}

// TestCheckpointTornWriteRecovery simulates a crash mid-checkpoint-write:
// the file on disk is a prefix of the real snapshot. Reading it must return
// a clean error — never a panic, and never a silently half-restored
// monitor.
func TestCheckpointTornWriteRecovery(t *testing.T) {
	m := tornMonitor(t)
	path := filepath.Join(t.TempDir(), "stream.ckpt")
	if err := m.Checkpoint().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(whole) < 4 {
		t.Fatalf("checkpoint suspiciously small: %d bytes", len(whole))
	}
	for _, keep := range []int{len(whole) / 2, len(whole) - 1, 1, 0} {
		if err := os.WriteFile(path, whole[:keep], 0o644); err != nil {
			t.Fatal(err)
		}
		cp, err := ReadCheckpointFile(path)
		if err == nil {
			t.Fatalf("checkpoint truncated to %d/%d bytes read back without error: %+v",
				keep, len(whole), cp)
		}
	}
	// The intact file still round-trips after the torn attempts.
	if err := os.WriteFile(path, whole, 0o644); err != nil {
		t.Fatal(err)
	}
	cp, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointTornTmpLeavesGoodFileIntact reproduces the crash window of
// WriteFile's write-tmp-then-rename protocol: a dead process can leave a
// garbage .tmp next to a good checkpoint. The good checkpoint must still
// load, and a subsequent WriteFile must clobber the stale tmp.
func TestCheckpointTornTmpLeavesGoodFileIntact(t *testing.T) {
	m := tornMonitor(t)
	path := filepath.Join(t.TempDir(), "stream.ckpt")
	if err := m.Checkpoint().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".tmp", []byte(`{"version":`), 0o644); err != nil {
		t.Fatal(err)
	}
	cp, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatalf("good checkpoint unreadable beside a torn tmp: %v", err)
	}
	if _, err := FromCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint().WriteFile(path); err != nil {
		t.Fatalf("rewrite over stale tmp: %v", err)
	}
	if _, err := ReadCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointVersionFromTornFuture guards the explicit-error path for a
// checkpoint whose JSON is intact but whose version is unknown.
func TestCheckpointWrongVersionExplicitError(t *testing.T) {
	m := tornMonitor(t)
	path := filepath.Join(t.TempDir(), "stream.ckpt")
	cp := m.Checkpoint()
	cp.Version = 99
	if err := cp.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromCheckpoint(back); err == nil {
		t.Fatal("version-99 checkpoint restored without error")
	}
}
