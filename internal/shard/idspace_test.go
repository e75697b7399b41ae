package shard_test

import (
	"fmt"
	"slices"
	"testing"

	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/shard"
	"gdeltmine/internal/store"
)

// The shard layer's one id space: every part's source and theme
// dictionaries are prefixes of the world's, the tail's source dictionary is
// the world's, and a split shares the monolith's dictionary objects. Four
// worlds carry it: Split(db, 4), Single(db), a durable log grown by ticks
// that intern new sources and by seals, and that log reopened.

// isPrefix reports whether a lists the first len(a) names of b.
func isPrefix(a, b []string) bool {
	return len(a) <= len(b) && slices.Equal(a, b[:len(a)])
}

// checkIDSpace checks the world's parts against its dictionaries, and that
// the world's source dictionary begins with the names of from.
func checkIDSpace(t *testing.T, name string, s *shard.DB, from []string) {
	t.Helper()
	world := s.Sources().Names()
	if !isPrefix(from, world) {
		t.Errorf("%s: the world's %d sources do not begin with the %d it grew from", name, len(world), len(from))
	}
	if got := s.Tail().Sources.Names(); !slices.Equal(got, world) {
		t.Errorf("%s: tail's source dictionary (%d names) is not the world's (%d)", name, len(got), len(world))
	}
	var themes []string
	if s.HasGKG() {
		themes = s.Themes().Names()
	}
	for i := range s.K() {
		p := s.Part(i)
		if !isPrefix(p.Sources.Names(), world) {
			t.Errorf("%s: part %d's source dictionary is not a prefix of the world's", name, i)
		}
		if (p.GKG != nil) != s.HasGKG() {
			t.Fatalf("%s: part %d disagrees with the world on carrying GKG", name, i)
		}
		if p.GKG != nil && !isPrefix(p.GKG.Themes.Names(), themes) {
			t.Errorf("%s: part %d's theme dictionary is not a prefix of the world's", name, i)
		}
	}
}

func TestOneIDSpace(t *testing.T) {
	cfg := logWorldCfg()
	cfg.GKG = true
	c, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	intervals := int32(c.World.Days() * gdelt.IntervalsPerDay)
	cut := intervals - 30*gdelt.IntervalsPerDay
	_, ticks := feedWorld(t, c, cut)
	// The feed's base world, plus the GKG records of its mentions.
	b, err := store.NewBuilder(gdelt.Timestamp(c.World.Cfg.Start), intervals)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Events {
		if c.Events[i].FirstMention < cut {
			ev := c.EventRecord(i)
			b.AddEvent(&ev)
		}
	}
	for j := range c.Mentions {
		if c.Mentions[j].Interval < cut {
			mn, rec := c.MentionRecord(j), c.GKGRecord(j)
			b.AddMention(&mn)
			b.AddGKG(&rec)
		}
	}
	base, _, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if base.GKG == nil || base.GKG.Themes.Len() == 0 {
		t.Fatal("the world carries no GKG themes; the theme checks would be vacuous")
	}
	baseNames := base.Sources.Names()

	split, err := shard.Split(base, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkIDSpace(t, "Split", split, baseNames)
	for i := range split.K() {
		p := split.Part(i)
		if p.Sources != base.Sources || p.GKG.Themes != base.GKG.Themes {
			t.Errorf("Split part %d does not share the monolith's dictionary objects", i)
		}
	}
	single, err := shard.Single(base)
	if err != nil {
		t.Fatal(err)
	}
	checkIDSpace(t, "Single", single, baseNames)

	// Grow a durable log: every fifth tick with a mention also names a
	// source the world has never seen, and the tail is sealed at the end of
	// each day, so parts sealed early hold shorter prefixes than later ones.
	sdb, err := shard.SplitAt(base, []int32{0, cut / 2, cut, intervals})
	if err != nil {
		t.Fatal(err)
	}
	lg, err := shard.CreateLog(t.TempDir(), sdb)
	if err != nil {
		t.Fatal(err)
	}
	var fresh []string
	for i, tk := range ticks[:10*gdelt.IntervalsPerDay] {
		mns := tk.mns
		if len(mns) > 0 && i%5 == 0 {
			m := mns[0]
			m.SourceName = fmt.Sprintf("fresh-%d.example", i)
			mns = append(slices.Clip(mns), m)
			fresh = append(fresh, m.SourceName)
		}
		if _, err := lg.Append(tk.evs, mns); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
		if (i+1)%gdelt.IntervalsPerDay == 0 {
			if _, err := lg.Seal(); err != nil {
				t.Fatalf("seal after tick %d: %v", i, err)
			}
		}
	}
	live := lg.Snapshot()
	if len(fresh) < 2 || live.K() < 6 {
		t.Fatalf("the log interned %d new sources over %d parts; the prefixes are not exercised", len(fresh), live.K())
	}
	checkIDSpace(t, "log", live, baseNames)
	for _, name := range fresh {
		if live.Sources().Lookup(name) < 0 {
			t.Errorf("log: new source %s missing from the world's dictionary", name)
		}
	}
	if n := live.Part(0).Sources.Len(); n >= live.Sources().Len() {
		t.Errorf("the first part holds %d of the world's %d sources; no part holds a strict prefix", n, live.Sources().Len())
	}

	// The last tick closed a day, so the directory holds the live world.
	reopened, err := shard.OpenLog(lg.Dir())
	if err != nil {
		t.Fatal(err)
	}
	again := reopened.Snapshot()
	checkIDSpace(t, "reopened log", again, live.Sources().Names())
	if again.K() != live.K() || again.Sources().Len() != live.Sources().Len() {
		t.Fatalf("reopened log: %d parts and %d sources, the live one %d and %d",
			again.K(), again.Sources().Len(), live.K(), live.Sources().Len())
	}
	for i := range live.K() {
		if got, want := again.Part(i).Sources.Len(), live.Part(i).Sources.Len(); got != want {
			t.Errorf("reopened part %d holds %d sources, the live one %d", i, got, want)
		}
	}
}
