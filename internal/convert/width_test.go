package convert

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gdeltmine/internal/faults"
	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/ingest"
	"gdeltmine/internal/report"
)

// withProcs runs f with GOMAXPROCS set to n: the width of the ordered
// chunk pipeline is parallel.DefaultWorkers(), which is GOMAXPROCS.
func withProcs(t *testing.T, n int, f func()) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// tableIIText is the Table II text gdeltconvert prints followed by every
// retained defect example, one a line.
func tableIIText(rep *gdelt.ValidationReport) string {
	text := report.TableII(rep)
	for cl := range rep.Examples {
		for _, ex := range rep.Examples[cl] {
			text += gdelt.DefectClass(cl).String() + ": " + ex + "\n"
		}
	}
	return text
}

// hostileDataset writes the Small preset (malformed master lines and
// withheld archives included) and damages it further: a duplicate master
// entry, a listed chunk of unknown kind (which the master list parser
// files as malformed), and a mentions chunk whose middle
// holds a row that does not parse followed by a mention captured outside
// the archive, so the chunk's bad rows and the builder's own drops
// interleave in the report. The returned plan makes chunks go missing
// and arrive truncated or corrupted.
func hostileDataset(t *testing.T) (string, map[string]faults.Fault) {
	t.Helper()
	c, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := gen.WriteRaw(c, dir); err != nil {
		t.Fatal(err)
	}
	ml := readMaster(t, dir)
	var mentions []gdelt.MasterEntry
	for _, e := range ml.Entries {
		if e.Kind() == "mentions" {
			if _, err := os.Stat(filepath.Join(dir, e.Path)); err == nil {
				mentions = append(mentions, e)
			}
		}
	}
	// Rewrite a mentions chunk and its master entry.
	target := &mentions[1]
	path := filepath.Join(dir, target.Path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	mid := len(lines) / 2
	outside := strings.Split(strings.TrimSuffix(lines[mid], "\n"), "\t")
	outside[gdelt.MnColMentionTimeDate] = "20300101000000"
	injected := "not\ta\tmention\n" + strings.Join(outside, "\t") + "\n"
	data = []byte(strings.Join(lines[:mid], "") + injected + strings.Join(lines[mid:], ""))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for i := range ml.Entries {
		if ml.Entries[i].Path == target.Path {
			ml.Entries[i].Size, ml.Entries[i].Checksum = int64(len(data)), gdelt.Checksum32(data)
		}
	}
	// A listed chunk of a kind no parser knows, and a repeated entry.
	weird := []byte("a\tb\n")
	if err := os.WriteFile(filepath.Join(dir, "20150301000000.weird.csv"), weird, 0o644); err != nil {
		t.Fatal(err)
	}
	ml.Entries = append(ml.Entries,
		gdelt.MasterEntry{Size: int64(len(weird)), Checksum: gdelt.Checksum32(weird), Path: "20150301000000.weird.csv"},
		ml.Entries[3])
	f, err := os.Create(filepath.Join(dir, gen.MasterFileName))
	if err != nil {
		t.Fatal(err)
	}
	if err := gdelt.WriteMasterList(f, ml); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	plan := map[string]faults.Fault{
		mentions[2].Path: faults.Missing,
		mentions[3].Path: faults.Truncated,
		mentions[4].Path: faults.Corrupted,
	}
	return dir, plan
}

// TestFromRawDirWidthChangesNothing: the chunk pipeline's width changes no
// byte. Over a hostile dataset read through a fault injector, a conversion
// at GOMAXPROCS 1 and at 4 gives the same binary format, the same Table II
// text with every retained example, and the same quarantine list.
func TestFromRawDirWidthChangesNothing(t *testing.T) {
	dir, plan := hostileDataset(t)
	type outcome struct {
		bin, table  string
		quarantined []QuarantinedChunk
		chunks      int
		malformed   int64
	}
	run := func(procs int) (o outcome) {
		withProcs(t, procs, func() {
			inj := faults.New(ingest.Dir(dir), faults.Config{Seed: 7, Plan: plan})
			res, err := FromRawDirOpts(context.Background(), dir, Options{Source: inj})
			if err != nil {
				t.Fatal(err)
			}
			o = outcome{string(encode(t, res.DB)), tableIIText(res.DB.Report), res.Quarantined, res.Chunks,
				res.DB.Report.Counts[gdelt.DefectMalformedMasterEntry]}
		})
		return o
	}
	serial, wide := run(1), run(4)
	if serial.bin != wide.bin {
		t.Error("binfmt bytes differ between widths 1 and 4")
	}
	if serial.table != wide.table {
		t.Errorf("Table II differs between widths 1 and 4:\n%s\nvs\n%s", serial.table, wide.table)
	}
	if !reflect.DeepEqual(serial.quarantined, wide.quarantined) || serial.chunks != wide.chunks {
		t.Errorf("quarantine differs: %d chunks %+v, at width 4 %d chunks %+v",
			serial.chunks, serial.quarantined, wide.chunks, wide.quarantined)
	}
	// The drill did what it set out to: the injected chunk's unparseable
	// row precedes the builder's drop of the row after it, as in the
	// file; the unknown kind and the repeat join the preset's five
	// malformed master lines; the missing chunk joins the preset's two
	// withheld archives in quarantine.
	bad, drop := strings.Index(serial.table, "mention row has 3 columns"), strings.Index(serial.table, "outside archive")
	if bad < 0 || drop < bad {
		t.Errorf("injected rows missing from the report, or out of file order:\n%s", serial.table)
	}
	if n := serial.malformed; n != 7 {
		t.Errorf("%d malformed master entries, want 7", n)
	}
	if len(serial.quarantined) != 3 {
		t.Errorf("quarantined %+v, want the missing chunk and the two withheld archives", serial.quarantined)
	}
}

// cancellingSource cancels its context on the n-th chunk read.
type cancellingSource struct {
	ingest.Source
	reads  atomic.Int64
	n      int64
	cancel context.CancelFunc
}

func (s *cancellingSource) ReadChunk(ctx context.Context, path string) ([]byte, error) {
	if s.reads.Add(1) == s.n {
		s.cancel()
	}
	return s.Source.ReadChunk(ctx, path)
}

// TestFromRawDirCancelDrains: a context cancelled a few chunks into a
// wide conversion makes it return the context's error, and every reader
// goroutine is gone once it has.
func TestFromRawDirCancelDrains(t *testing.T) {
	dir, _ := cleanDataset(t)
	withProcs(t, 4, func() {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		src := &cancellingSource{Source: ingest.Dir(dir), n: 5, cancel: cancel}
		_, err := FromRawDirOpts(ctx, dir, Options{Source: src})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err %v, want context.Canceled", err)
		}
		if n := src.reads.Load(); n >= int64(len(readMaster(t, dir).Entries)) {
			t.Fatalf("read all %d chunks despite the cancel", n)
		}
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("%d goroutines after the cancelled conversion, %d before", n, before)
		}
	})
}
