package stream_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"gdeltmine/internal/convert"
	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/registry"
	"gdeltmine/internal/shard"
	"gdeltmine/internal/store"
	"gdeltmine/internal/stream"
)

// TestReplayOverFeedServer drives replay the way gdeltstream -in does: a
// LiveRunner over an in-process FeedServer that advances one tick per
// poll, on a generated world with withheld archives, one chunk whose bytes
// no longer match its master-list CRC, and an undated master entry. A
// replay interrupted after a few polls into a log directory and resumed
// over the reopened log must fire the uninterrupted replay's alerts and
// answer every kind like it and like a batch build of the ticks that fold
// whole; the ledger's gaps are exactly the withheld and the damaged ticks.
func TestReplayOverFeedServer(t *testing.T) {
	cfg := liveCfg()
	cfg.DefectMissingArchives = 2
	c, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	res, err := gen.WriteRaw(c, dir)
	if err != nil {
		t.Fatal(err)
	}
	start := gdelt.Timestamp(cfg.Start)
	chunkOf := func(ts gdelt.Timestamp) int {
		return int(ts.IntervalIndex()-start.IntervalIndex()) / cfg.IntervalsPerFile
	}
	lost := map[int]bool{}
	for _, name := range res.MissingFiles {
		ts, err := gdelt.MasterEntry{Path: name}.Interval()
		if err != nil {
			t.Fatal(err)
		}
		lost[chunkOf(ts)] = true
	}
	// Damage a mentions chunk of an otherwise whole tick: one byte flipped,
	// its size kept, so only the CRC check can tell.
	damaged := res.Chunks / 2
	for lost[damaged] {
		damaged++
	}
	lost[damaged] = true
	path := filepath.Join(dir, c.IntervalTimestamp(int32(damaged*cfg.IntervalsPerFile)).String()+".mentions.csv")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// A listed entry whose name carries no timestamp belongs to no tick:
	// the feed leaves it out, as Ticks does.
	ml, err := os.OpenFile(res.MasterPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ml.WriteString("100 0a1b2c3d undated.export.csv\n"); err != nil {
		t.Fatal(err)
	}
	if err := ml.Close(); err != nil {
		t.Fatal(err)
	}
	if fs, err := stream.NewFeedServer(dir, nil); err != nil || fs.Ticks() != res.Chunks {
		t.Fatalf("feed over a master list with an undated entry: %v; want %d ticks", err, res.Chunks)
	}
	var want []gdelt.Timestamp
	for ch := range res.Chunks {
		if lost[ch] {
			if ch == 0 || ch == res.Chunks-1 {
				t.Fatalf("chunk %d is lost at the archive's edge, where it is no gap", ch)
			}
			want = append(want, c.IntervalTimestamp(int32(ch*cfg.IntervalsPerFile)))
		}
	}

	mcfg := stream.Config{ChunkIntervals: int32(cfg.IntervalsPerFile), GraceIntervals: 8}
	// replay folds the dataset into lg from the first tick its ledger
	// lacks, for at most polls polls (all when negative), and returns the
	// alerts it fired and the runner's counters.
	replay := func(lg *shard.Log, polls int) ([]stream.Alert, stream.LiveStats) {
		t.Helper()
		fs, err := stream.NewFeedServer(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		mon := stream.NewMonitor(lg, mcfg)
		from := lg.Snapshot().Meta().Start
		if len(lg.Ledger()) > 0 {
			from = mon.ResumePoint(from)
		}
		r := stream.NewLiveRunner(fs, mon, from)
		comp := stream.NewCompactor(lg, stream.CompactorConfig{MaxTailRows: 1 << 30, MaxTailSpan: 5 * 96})
		var alerts []stream.Alert
		for i := 0; i != polls && (fs.Advance() || r.Pending() > 0); i++ {
			// A poll that meets a withheld or damaged chunk errors; the
			// runner skips that tick after SkipAfterPolls such polls.
			a, _ := r.PollOnce(context.Background())
			alerts = append(alerts, a...)
			if _, err := comp.RunOnce(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := lg.Seal(); err != nil {
			t.Fatal(err)
		}
		return alerts, r.Stats()
	}
	byEvent := func(a, b stream.Alert) int { return int(a.EventID - b.EventID) }

	refLog := shard.NewLog(emptyWorld(t, c, 96))
	refAlerts, refSt := replay(refLog, -1)
	if g := stream.NewMonitor(refLog, mcfg).Gaps(); !slices.Equal(g, want) {
		t.Fatalf("uninterrupted replay left gaps %v, want the withheld and damaged ticks %v", g, want)
	}
	// The feed advertises each tick once, and the master list's sightings
	// of ticks already applied or buffered are no duplicates.
	if refSt.Duplicates != 0 {
		t.Errorf("uninterrupted replay counted %d duplicates over a feed that repeats nothing", refSt.Duplicates)
	}

	logDir := t.TempDir()
	lg, err := shard.CreateLog(logDir, emptyWorld(t, c, 96))
	if err != nil {
		t.Fatal(err)
	}
	alerts, _ := replay(lg, 8)
	if n := len(lg.Ledger()); n == 0 || n >= res.Chunks-len(want) {
		t.Fatalf("interrupted replay folded %d ticks, want some but not all", n)
	}
	lg2, err := shard.OpenLog(logDir)
	if err != nil {
		t.Fatal(err)
	}
	resumed, _ := replay(lg2, -1)
	alerts = append(alerts, resumed...)
	slices.SortFunc(alerts, byEvent)
	slices.SortFunc(refAlerts, byEvent)
	if !slices.Equal(alerts, refAlerts) {
		t.Errorf("interrupted and resumed replays fired %d alerts, uninterrupted %d (or different ones)", len(alerts), len(refAlerts))
	}
	final, err := shard.OpenLog(logDir)
	if err != nil {
		t.Fatal(err)
	}
	if g := stream.NewMonitor(final, mcfg).Gaps(); !slices.Equal(g, want) {
		t.Errorf("resumed replay left gaps %v, want %v", g, want)
	}

	// The batch reference: every row of the ticks that fold whole.
	b, err := store.NewBuilder(start, int32(c.World.Days()*gdelt.IntervalsPerDay)+96)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Events {
		if !lost[int(c.Events[i].FirstMention)/cfg.IntervalsPerFile] {
			ev := c.EventRecord(i)
			b.AddEvent(&ev)
		}
	}
	for j := range c.Mentions {
		if !lost[int(c.Mentions[j].Interval)/cfg.IntervalsPerFile] {
			mn := c.MentionRecord(j)
			b.AddMention(&mn)
		}
	}
	db, _, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	batch, err := shard.Split(db, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := totalMentions(final.Snapshot()), totalMentions(batch); got != want {
		t.Fatalf("resumed replay holds %d mention rows, batch build %d", got, want)
	}
	for _, d := range registry.All() {
		if d.NeedsGKG {
			continue
		}
		got := jsonKind(t, final.Snapshot(), d.Kind)
		if ref := jsonKind(t, refLog.Snapshot(), d.Kind); got != ref {
			t.Errorf("%s: resumed replay diverges from the uninterrupted one\n got  %.200s\n want %.200s", d.Kind, got, ref)
		}
		if ref := jsonKind(t, batch, d.Kind); got != ref {
			t.Errorf("%s: resumed replay diverges from the batch build\n got  %.200s\n want %.200s", d.Kind, got, ref)
		}
	}
}

// TestReplayDefectsMatchConvert: a replay of a Small-preset directory
// into a log directory, as gdeltstream -in DIR -checkpoint LOG runs it,
// tallies the defects a conversion of the same directory tallies — events
// without a source URL, events recorded after their first mention, and
// rows that do not parse, with the same bad-row examples — in the live
// log, after its last seal and in the log reopened from disk. Seed 42 is
// the directory gdeltgen -preset small writes, where no URL-less event
// survives conversion; seed 0 keeps one. Each directory gets one
// unparseable row in a mentions chunk, listed with its new size and CRC.
func TestReplayDefectsMatchConvert(t *testing.T) {
	classes := []gdelt.DefectClass{gdelt.DefectMissingSourceURL, gdelt.DefectFutureEventDate, gdelt.DefectBadRow}
	counts := func(rep *gdelt.ValidationReport) []int64 {
		out := make([]int64, len(classes))
		for i, cl := range classes {
			out[i] = rep.Counts[cl]
		}
		return out
	}
	check := func(seed int64, state string, got, want *gdelt.ValidationReport) {
		t.Helper()
		if g, w := counts(got), counts(want); !slices.Equal(g, w) {
			t.Fatalf("seed %d: %s log tallies %v, conversion %v", seed, state, g, w)
		}
		if g, w := got.Examples[gdelt.DefectBadRow], want.Examples[gdelt.DefectBadRow]; !slices.Equal(g, w) {
			t.Fatalf("seed %d: %s log files bad rows %q, conversion %q", seed, state, g, w)
		}
	}
	seen := make([]int64, len(classes))
	for _, seed := range []int64{42, 0} {
		cfg := gen.Small()
		cfg.Seed = seed
		c, err := gen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if _, err := gen.WriteRaw(c, dir); err != nil {
			t.Fatal(err)
		}
		addBadRow(t, dir)
		conv, err := convert.FromRawDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range counts(conv.DB.Report) {
			seen[i] += n
		}

		spacing := int32(cfg.IntervalsPerFile)
		logDir := t.TempDir()
		lg, err := shard.CreateLog(logDir, emptyWorld(t, c, 366*gdelt.IntervalsPerDay))
		if err != nil {
			t.Fatal(err)
		}
		fs, err := stream.NewFeedServer(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		mon := stream.NewMonitor(lg, stream.Config{ChunkIntervals: spacing, GraceIntervals: 8})
		r := stream.NewLiveRunner(fs, mon, lg.Snapshot().Meta().Start)
		comp := stream.NewCompactor(lg, stream.CompactorConfig{MaxTailSpan: 5 * spacing})
		for fs.Advance() || r.Pending() > 0 {
			// Polls that meet a withheld archive error until the runner
			// skips its tick.
			_, _ = r.PollOnce(context.Background())
			if _, err := comp.RunOnce(); err != nil {
				t.Fatal(err)
			}
		}
		check(seed, "live", lg.Snapshot().Report(), conv.DB.Report)
		if _, err := lg.Seal(); err != nil {
			t.Fatal(err)
		}
		check(seed, "sealed", lg.Snapshot().Report(), conv.DB.Report)
		reopened, err := shard.OpenLog(logDir)
		if err != nil {
			t.Fatal(err)
		}
		check(seed, "reopened", reopened.Snapshot().Report(), conv.DB.Report)
	}
	if slices.Contains(seen, 0) {
		t.Fatalf("conversions tallied %v over both seeds: each class should show", seen)
	}
}

// addBadRow appends a row that does not parse to the first mentions chunk
// of the dataset in dir whose export chunk is on disk, so its tick folds,
// and lists the chunk with its new size and CRC, so it still passes its
// master-list check.
func addBadRow(t *testing.T, dir string) {
	t.Helper()
	mlPath := filepath.Join(dir, gen.MasterFileName)
	ml, err := os.ReadFile(mlPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(ml), "\n")
	for i, line := range lines {
		e, err := gdelt.ParseMasterEntry(line)
		if err != nil || e.Kind() != "mentions" {
			continue
		}
		path := filepath.Join(dir, e.Path)
		if _, err := os.Stat(strings.TrimSuffix(path, ".mentions.csv") + ".export.csv"); err != nil {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, "not\ta\trow\n"...)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		lines[i] = fmt.Sprintf("%d %s %s", len(data), gdelt.Checksum32(data), e.Path)
		if err := os.WriteFile(mlPath, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatal("no mentions chunk listed")
}
