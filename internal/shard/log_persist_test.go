// Persistence tests for the durable append log: a seal writes only the two
// parts it creates, and a cold reopen after any seal — which reconciles the
// per-event metadata older part files hold stale — loads exactly the world
// the writer has published.
package shard_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"gdeltmine/internal/faults"
	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/obs"
	"gdeltmine/internal/shard"
)

// oldEventMention returns a web mention, captured at interval iv, of an
// event that part 0 of s holds and its tail does not: folding it changes
// the metadata of a copy in a sealed part.
func oldEventMention(tb testing.TB, c *gen.Corpus, s *shard.DB, iv int32) gdelt.Mention {
	tb.Helper()
	for _, id := range s.Part(0).Events.ID {
		if s.Tail().EventRowByID(id) < 0 {
			ts := c.IntervalTimestamp(iv)
			return gdelt.Mention{GlobalEventID: id, EventTime: ts, MentionTime: ts,
				MentionType: gdelt.MentionTypeWeb, SourceName: s.Sources().Name(0), DocLen: 700, Confidence: 60}
		}
	}
	tb.Fatal("no event held by part 0 and not the tail")
	return gdelt.Mention{}
}

// checkReopen loads lg's directory cold — every part checked against its
// digest — and requires the world to equal the live snapshot: every part's
// event ids and per-event metadata, the probe kinds' answers, and the
// manifest bytes, against a fresh encoding of the snapshot under the same
// file names and digests.
func checkReopen(t *testing.T, lg *shard.Log) {
	t.Helper()
	live := lg.Snapshot()
	re, err := shard.OpenLog(lg.Dir())
	if err != nil {
		t.Fatalf("reopening: %v", err)
	}
	got := re.Snapshot()
	if got.K() != live.K() {
		t.Fatalf("reopened K %d, live %d", got.K(), live.K())
	}
	for i := 0; i < live.K(); i++ {
		a, b := &got.Part(i).Events, &live.Part(i).Events
		if !slices.Equal(a.ID, b.ID) || !slices.Equal(a.NumArticles, b.NumArticles) ||
			!slices.Equal(a.FirstMention, b.FirstMention) || !slices.Equal(a.Interval, b.Interval) {
			t.Fatalf("part %d: reopened event metadata differs from the live snapshot", i)
		}
	}
	for _, k := range logProbeKinds {
		if !reflect.DeepEqual(runKind(t, got, k), runKind(t, live, k)) {
			t.Fatalf("%s: reopened log answers differently", k)
		}
	}
	raw, err := os.ReadFile(filepath.Join(lg.Dir(), shard.LogManifestName))
	if err != nil {
		t.Fatal(err)
	}
	m, err := shard.DecodeManifest(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := shard.ManifestFromDB(live, m.Entries)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := shard.EncodeManifest(&want, fresh); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want.Bytes()) {
		t.Fatal("on-disk manifest differs from a fresh encoding of the live snapshot")
	}
}

func TestLogReopenEqualsLiveEverySeal(t *testing.T) {
	for _, seed := range []int64{42, 777} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg := logWorldCfg()
			cfg.Seed = seed
			c, lg, ticks, cut := feedLog(t, cfg, 30, t.TempDir())
			fed, seals := 0, 0
			for i, tk := range ticks {
				if len(tk.evs)+len(tk.mns) == 0 {
					continue
				}
				if _, err := lg.Append(tk.evs, tk.mns); err != nil {
					t.Fatalf("tick %d: %v", i, err)
				}
				if fed++; fed == 100 {
					appendOddTicks(t, c, lg, cut+int32(i))
				}
				if lg.TailSpan() >= gdelt.IntervalsPerDay {
					if sealed, err := lg.Seal(); err != nil || !sealed {
						t.Fatalf("seal after tick %d: (%v, %v)", i, sealed, err)
					}
					seals++
					checkReopen(t, lg)
				}
			}
			if seals < 25 {
				t.Fatalf("schedule too short: %d seals", seals)
			}
		})
	}
}

func TestLogSealWritesOnlyNewParts(t *testing.T) {
	c, lg, ticks, cut := feedLog(t, logWorldCfg(), 30, t.TempDir())
	iv := cut
	for i, tk := range ticks {
		if len(tk.mns) > 0 {
			if _, err := lg.Append(tk.evs, tk.mns); err != nil {
				t.Fatal(err)
			}
			iv = cut + int32(i)
			break
		}
	}
	pre := lg.Snapshot()
	mn := oldEventMention(t, c, pre, iv)
	if _, err := lg.Append(nil, []gdelt.Mention{mn}); err != nil {
		t.Fatal(err)
	}
	r := pre.Part(0).EventRowByID(mn.GlobalEventID)
	if got, was := lg.Snapshot().Part(0).Events.NumArticles[r], pre.Part(0).Events.NumArticles[r]; got != was+1 {
		t.Fatalf("part 0's copy of event %d has %d articles after the tick, want %d", mn.GlobalEventID, got, was+1)
	}

	counter := func(name string) float64 { return obs.Default.Snapshot().Find(name).Value }
	bytes0, parts0 := counter("shard_log_seal_written_bytes_total"), counter("shard_log_seal_parts_written_total")
	rec := &faults.FSPlan{}
	lg.SetStepHook(rec.Hook)
	if sealed, err := lg.Seal(); err != nil || !sealed {
		t.Fatalf("seal: (%v, %v)", sealed, err)
	}
	var written []string
	for _, s := range rec.Steps() {
		if s.Op == shard.OpWritePart {
			written = append(written, s.Path)
		}
	}
	if len(written) != 2 {
		t.Fatalf("seal wrote %d part files, want the sealed part and the fresh tail only: %v", len(written), written)
	}

	k := lg.Snapshot().K()
	ents, err := os.ReadDir(lg.Dir())
	if err != nil {
		t.Fatal(err)
	}
	partFiles := 0
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".gdmb") {
			partFiles++
		}
	}
	if partFiles != k || len(ents) != k+1 {
		t.Fatalf("log directory holds %d entries, %d of them part files; want %d parts plus the manifest", len(ents), partFiles, k)
	}
	var size int64 // the hook saw each file under its temp name
	for _, tmp := range append(written, filepath.Join(lg.Dir(), shard.LogManifestName)+".tmp") {
		fi, err := os.Stat(strings.TrimSuffix(tmp, ".tmp"))
		if err != nil {
			t.Fatal(err)
		}
		size += fi.Size()
	}
	if got := counter("shard_log_seal_parts_written_total") - parts0; got != 2 {
		t.Errorf("shard_log_seal_parts_written_total grew by %v, want 2", got)
	}
	if got := counter("shard_log_seal_written_bytes_total") - bytes0; got != float64(size) {
		t.Errorf("shard_log_seal_written_bytes_total grew by %v, want %d (two parts and the manifest)", got, size)
	}
	checkReopen(t, lg)
}
