// Crash-safety harness for the append log's persist protocol: a recording
// run enumerates every write/rename/fsync step of one seal, then the same
// workload is replayed once per step with internal/faults.FSPlan killing
// the compactor at exactly that point. Reopening the log directory after
// each simulated crash must yield a fully-old or fully-new world — never a
// torn mix, never a load error — where "old" is the world as of the last
// successful persist (appended ticks are in-memory by contract and are
// re-folded from the feed on recovery). A world is its data and its chunk
// ledger together: a reopen must never pair one generation's rows with
// another's ledger.
package shard_test

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"gdeltmine/internal/faults"
	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/shard"
)

// crashWorld captures the comparable identity of a log's world: the
// sharded data and the ledger of the ticks it holds.
type crashWorld struct {
	k       int
	bounds  []int32
	rows    []int
	ledger  []int32
	answers map[string]any
}

func captureWorld(t *testing.T, lg *shard.Log) crashWorld {
	t.Helper()
	s := lg.Snapshot()
	w := crashWorld{k: s.K(), bounds: s.Bounds(), ledger: lg.Ledger(), answers: map[string]any{}}
	for i := 0; i < s.K(); i++ {
		w.rows = append(w.rows, s.Part(i).Mentions.Len())
	}
	for _, k := range logProbeKinds {
		w.answers[k] = runKind(t, s, k)
	}
	return w
}

func sameWorld(a, b crashWorld) bool {
	return a.k == b.k && reflect.DeepEqual(a.bounds, b.bounds) && slices.Equal(a.ledger, b.ledger) &&
		reflect.DeepEqual(a.rows, b.rows) && reflect.DeepEqual(a.answers, b.answers)
}

func TestLogCrashSafetyEveryStep(t *testing.T) {
	c, err := gen.Generate(logWorldCfg())
	if err != nil {
		t.Fatal(err)
	}
	iv := int32(c.World.Days() * gdelt.IntervalsPerDay)
	cut := iv - 10*gdelt.IntervalsPerDay
	chunks := mentionChunks(c, cut, 3*gdelt.IntervalsPerDay)
	if len(chunks) < 2 {
		t.Fatalf("world too small: %d chunks", len(chunks))
	}
	sdb0, err := shard.Split(buildPrefix(t, c, cut), 2)
	if err != nil {
		t.Fatal(err)
	}
	// The last tick mentions an event only the sealed base part holds, so
	// the seal under test leaves that part's file stale on disk and every
	// reopen of a new world below goes through OpenLog's metadata reconcile.
	last := cut
	for j := range c.Mentions {
		last = max(last, c.Mentions[j].Interval)
	}
	chunks = append(chunks, []gdelt.Mention{oldEventMention(t, c, sdb0, last)})
	// Each chunk is one tick, marked at its first mention's capture time.
	for i := 1; i < len(chunks); i++ {
		if chunks[i][0].MentionTime <= chunks[i-1][0].MentionTime {
			t.Fatalf("ticks %d and %d share a mark", i-1, i)
		}
	}
	fold := func(t *testing.T, lg *shard.Log, chunks [][]gdelt.Mention) {
		t.Helper()
		for _, ch := range chunks {
			if _, err := lg.AppendTick(ch[0].MentionTime, nil, ch); err != nil {
				t.Fatal(err)
			}
		}
	}

	// setup replays the identical workload into a fresh directory: the
	// first tick folded and durably sealed (the old world on disk carries a
	// ledger too), the rest folded in memory; it stops right before the
	// seal under test.
	setup := func(t *testing.T) *shard.Log {
		t.Helper()
		sdb, err := shard.Split(buildPrefix(t, c, cut), 2)
		if err != nil {
			t.Fatal(err)
		}
		lg, err := shard.CreateLog(t.TempDir(), sdb)
		if err != nil {
			t.Fatal(err)
		}
		fold(t, lg, chunks[:1])
		if sealed, err := lg.Seal(); err != nil || !sealed {
			t.Fatalf("setup seal: (%v, %v)", sealed, err)
		}
		return lg
	}

	// Recording run: a clean seal, enumerating the protocol's steps and
	// pinning the legal post-crash worlds. oldDisk is the last persisted
	// world (appends are in-memory until a seal lands); oldMem is the
	// published snapshot a failed seal must leave untouched.
	rec := &faults.FSPlan{}
	lg := setup(t)
	oldDisk := captureWorld(t, lg)
	fold(t, lg, chunks[1:])
	oldMem := captureWorld(t, lg)
	lg.SetStepHook(rec.Hook)
	if sealed, err := lg.Seal(); err != nil || !sealed {
		t.Fatalf("recording seal: (%v, %v)", sealed, err)
	}
	newWorld := captureWorld(t, lg)
	if len(oldDisk.ledger) != 1 || len(newWorld.ledger) != len(chunks) {
		t.Fatalf("ledgers old %v, new %v; want 1 and %d ticks", oldDisk.ledger, newWorld.ledger, len(chunks))
	}
	steps := rec.Steps()
	if len(steps) < 7 {
		t.Fatalf("recorded only %d protocol steps: %v", len(steps), steps)
	}
	if sameWorld(oldDisk, newWorld) || sameWorld(oldMem, newWorld) {
		t.Fatal("seal did not change the world; the harness would prove nothing")
	}
	// The protocol must end with the publication steps, in order.
	tailOps := []string{shard.OpWriteManifest, shard.OpSyncManifest, shard.OpRenameManifest, shard.OpSyncDir}
	for i, op := range tailOps {
		if got := steps[len(steps)-len(tailOps)+i].Op; got != op {
			t.Fatalf("protocol step %d from the end is %s, want %s (steps: %v)", len(tailOps)-i, got, op, steps)
		}
	}

	var sawOld, sawNew int
	for fail := 1; fail <= len(steps); fail++ {
		fail := fail
		t.Run(fmt.Sprintf("step%02d-%s", fail, steps[fail-1].Op), func(t *testing.T) {
			lg := setup(t)
			fold(t, lg, chunks[1:])
			plan := &faults.FSPlan{FailStep: fail}
			lg.SetStepHook(plan.Hook)
			sealed, err := lg.Seal()
			if err == nil {
				t.Fatalf("seal survived an injected crash at step %d", fail)
			}
			var crash *faults.ErrInjectedCrash
			if !errors.As(err, &crash) {
				t.Fatalf("seal failed with %v, not the injected crash", err)
			}
			if sealed {
				t.Fatal("seal reported success alongside an error")
			}
			// The in-memory world must still be the appended one (the
			// process, had it survived, keeps serving and retries later).
			if got := captureWorld(t, lg); !sameWorld(got, oldMem) {
				t.Fatal("failed seal left a mutated in-memory world published")
			}
			// Simulated restart: reopen the directory cold.
			re, err := shard.OpenLog(lg.Dir())
			if err != nil {
				t.Fatalf("reopening after crash at step %d: %v", fail, err)
			}
			got := captureWorld(t, re)
			// The ledger decides what recovery folds: a tick it holds is
			// refused, one it lacks goes back in.
			if _, err := re.AppendTick(chunks[0][0].MentionTime, nil, chunks[0]); err == nil {
				t.Fatal("reopened log folded the durably sealed tick again")
			}
			switch {
			case sameWorld(got, oldDisk):
				sawOld++
				if steps[fail-1].Op == shard.OpSyncDir {
					t.Error("crash after the manifest rename recovered the old world")
				}
				// Real recovery: re-fold the lost ticks (the live poller
				// replays them from the feed), then seal again — the
				// directory must not have been poisoned by the crash.
				fold(t, re, chunks[1:])
				if sealed, err := re.Seal(); err != nil || !sealed {
					t.Fatalf("post-recovery seal: (%v, %v)", sealed, err)
				}
				if got := captureWorld(t, re); !sameWorld(got, newWorld) {
					t.Fatal("post-recovery replay+seal did not converge to the sealed world")
				}
			case sameWorld(got, newWorld):
				sawNew++
				// Only a crash at the final fsync-dir step (the hook fires
				// before the operation it names, so the manifest rename has
				// already happened) may surface the new world.
				if op := steps[fail-1].Op; op != shard.OpSyncDir {
					t.Errorf("crash at %s (step %d) surfaced the new world before the manifest rename", op, fail)
				}
				// Nothing was lost, nothing to seal.
				if sealed, err := re.Seal(); err != nil || sealed {
					t.Fatalf("seal on fully-new recovery: (%v, %v), want (false, nil)", sealed, err)
				}
			default:
				t.Fatalf("crash at step %d (%s) left a TORN world: k=%d bounds=%v rows=%v ledger=%v",
					fail, steps[fail-1].Op, got.k, got.bounds, got.rows, got.ledger)
			}
		})
	}
	if sawOld == 0 || sawNew == 0 {
		t.Fatalf("harness never saw both outcomes (old %d, new %d); kill points are not covering the protocol", sawOld, sawNew)
	}
}
