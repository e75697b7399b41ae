package shard_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"gdeltmine/internal/convert"
	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/shard"
	"gdeltmine/internal/store"
)

// smallStore builds the gen.Small preset's monolith.
func smallStore(t *testing.T) *store.DB {
	t.Helper()
	c, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	res, err := convert.FromCorpus(c)
	if err != nil {
		t.Fatal(err)
	}
	return res.DB
}

// sameEventTable reports whether a and b hold the same rows, column for
// column.
func sameEventTable(a, b *store.EventTable) bool {
	return slices.Equal(a.ID, b.ID) && slices.Equal(a.Interval, b.Interval) &&
		slices.Equal(a.Country, b.Country) && slices.Equal(a.NumArticles, b.NumArticles) &&
		slices.Equal(a.FirstMention, b.FirstMention) && slices.Equal(a.SourceURL, b.SourceURL)
}

// TestNewRefusesDisagreeingCopy damages one column of a middle part's copy
// of an event that an outer part holds too, and requires New to refuse the
// parts, naming the event. A damaged id is the id of another event, one
// the middle part lacks, that keeps the part's ids ascending: the copy then
// joins that event, whose other columns it does not share.
func TestNewRefusesDisagreeingCopy(t *testing.T) {
	db := smallStore(t)
	const k = 5
	split := func() ([]*store.DB, []int32) {
		s, err := shard.Split(db, k)
		if err != nil {
			t.Fatal(err)
		}
		parts := make([]*store.DB, k)
		for i := range parts {
			parts[i] = s.Part(i)
		}
		return parts, s.Bounds()
	}
	parts, bounds := split()
	if _, err := shard.New(parts, bounds); err != nil {
		t.Fatalf("undamaged parts: %v", err)
	}
	mid := &parts[k/2].Events
	shared := -1 // a row of the middle part whose event an outer part holds too
	for r, id := range mid.ID {
		if parts[0].EventRowByID(id) >= 0 || parts[k-1].EventRowByID(id) >= 0 {
			shared = r
			break
		}
	}
	if shared < 0 {
		t.Fatal("no event of the middle part is held by an outer part")
	}
	// other is an id part 0 holds and the middle part lacks. It takes the
	// place of the middle part's row at, its neighbour in id order, so the
	// part's ids still ascend.
	other, at := int64(-1), -1
	for _, id := range parts[0].Events.ID {
		if r, found := slices.BinarySearch(mid.ID, id); !found {
			other, at = id, min(r, mid.Len()-1)
			break
		}
	}
	if other < 0 {
		t.Fatal("the middle part holds every event of part 0")
	}
	for _, c := range []struct {
		column string
		damage func(ev *store.EventTable) int64 // returns the id New must name
	}{
		{"ID", func(ev *store.EventTable) int64 { ev.ID[at] = other; return other }},
		{"Interval", func(ev *store.EventTable) int64 { ev.Interval[shared]++; return ev.ID[shared] }},
		{"Country", func(ev *store.EventTable) int64 { ev.Country[shared]++; return ev.ID[shared] }},
		{"NumArticles", func(ev *store.EventTable) int64 { ev.NumArticles[shared]++; return ev.ID[shared] }},
		{"FirstMention", func(ev *store.EventTable) int64 { ev.FirstMention[shared]++; return ev.ID[shared] }},
		{"SourceURL", func(ev *store.EventTable) int64 { ev.SourceURL[shared] += "#"; return ev.ID[shared] }},
	} {
		t.Run(c.column, func(t *testing.T) {
			parts, bounds := split()
			id := c.damage(&parts[k/2].Events)
			_, err := shard.New(parts, bounds)
			if want := fmt.Sprintf("shard: shards disagree on event %d", id); err == nil || err.Error() != want {
				t.Fatalf("New on a middle part with a damaged %s: %v, want %q", c.column, err, want)
			}
		})
	}
}

// TestSplitManyPartsEqualsSingle splits the Small world into 64 and 512
// parts, where every event is held by many parts and the merge's heap is
// deep: the global event table must be the K=1 world's row for row, and
// the probe kinds, plus the kinds that find global events in the parts,
// must answer as at K=1.
func TestSplitManyPartsEqualsSingle(t *testing.T) {
	db := smallStore(t)
	one, err := shard.Single(db)
	if err != nil {
		t.Fatal(err)
	}
	want := shard.GlobalEvents(one)
	kinds := append(slices.Clone(logProbeKinds), "follow", "coreport", "wildfires", "top-events")
	for _, k := range []int{64, 512} {
		s, err := shard.Split(db, k)
		if err != nil {
			t.Fatal(err)
		}
		if got := shard.GlobalEvents(s); !sameEventTable(&got, &want) {
			t.Fatalf("K=%d: global event table differs from K=1's (%d vs %d rows)", k, got.Len(), want.Len())
		}
		if err := shard.DiffFromRebuild(s); err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		for _, kind := range kinds {
			if !reflect.DeepEqual(runKind(t, s, kind), runKind(t, one, kind)) {
				t.Fatalf("K=%d: %s answers differently from K=1", k, kind)
			}
		}
	}
}

// TestLogReopenManyParts seals a durable log every six hours of feed until
// it holds at least 64 parts, each seal following a mention of an event
// only the oldest part holds, so many part files keep stale copies of
// events' metadata. The cold reopen must equal the live snapshot.
func TestLogReopenManyParts(t *testing.T) {
	c, lg, ticks, cut := feedLog(t, logWorldCfg(), 30, t.TempDir())
	fallbacks := appendFallbacks()
	for i, tk := range ticks {
		if lg.Snapshot().K() >= 64 {
			break
		}
		if _, err := lg.Append(tk.evs, tk.mns); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
		if lg.TailSpan() < gdelt.IntervalsPerDay/4 {
			continue
		}
		mn := oldEventMention(t, c, lg.Snapshot(), cut+int32(i))
		if _, err := lg.Append(nil, []gdelt.Mention{mn}); err != nil {
			t.Fatal(err)
		}
		if sealed, err := lg.Seal(); err != nil || !sealed {
			t.Fatalf("seal after tick %d: (%v, %v)", i, sealed, err)
		}
	}
	if k := lg.Snapshot().K(); k < 64 {
		t.Fatalf("the feed sealed only %d parts", k)
	}
	checkReopen(t, lg)
	if err := shard.DiffFromRebuild(lg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if n := appendFallbacks() - fallbacks; n != 0 {
		t.Fatalf("shard_log_append_fallback_total grew by %v", n)
	}
}
