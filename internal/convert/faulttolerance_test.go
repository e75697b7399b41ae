package convert

import (
	"bufio"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"gdeltmine/internal/faults"
	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/ingest"
)

// cleanDataset writes a Small corpus with gen's own defect injection off,
// so every defect the conversion reports was injected by this test.
func cleanDataset(t testing.TB) (dir string, c *gen.Corpus) {
	t.Helper()
	cfg := gen.Small()
	cfg.DefectMalformedMaster = 0
	cfg.DefectMissingArchives = 0
	c, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir = t.TempDir()
	if _, err := gen.WriteRaw(c, dir); err != nil {
		t.Fatal(err)
	}
	return dir, c
}

func readMaster(t testing.TB, dir string) *gdelt.MasterList {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, gen.MasterFileName))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ml, err := gdelt.ReadMasterList(bufio.NewReader(f))
	if err != nil {
		t.Fatal(err)
	}
	return ml
}

// TestFromRawDirOptsUnderInjectedFaults is the end-to-end fault drill:
// a dataset is converted through an injector that makes one chunk vanish,
// one truncate and one corrupt. The missing one must quarantine with the
// build completing partially, and the damaged ones must land in the Table
// II checksum tally.
func TestFromRawDirOptsUnderInjectedFaults(t *testing.T) {
	dir, _ := cleanDataset(t)
	ml := readMaster(t, dir)
	if len(ml.Entries) < 4 {
		t.Fatalf("need at least 4 chunks, have %d", len(ml.Entries))
	}
	plan := map[string]faults.Fault{
		ml.Entries[1].Path: faults.Missing,
		ml.Entries[2].Path: faults.Truncated,
		ml.Entries[3].Path: faults.Corrupted,
	}
	inj := faults.New(ingest.Dir(dir), faults.Config{Seed: 7, Plan: plan})
	res, err := FromRawDirOpts(context.Background(), dir, Options{Source: inj})
	if err != nil {
		t.Fatalf("build must degrade gracefully, got %v", err)
	}
	report := res.DB.Report

	// Exactly the missing chunk quarantined; everything else made it in.
	if len(res.Quarantined) != 1 {
		t.Fatalf("quarantined %+v want exactly the missing chunk", res.Quarantined)
	}
	q := res.Quarantined[0]
	if q.Path != ml.Entries[1].Path || q.Class != gdelt.DefectMissingArchive {
		t.Fatalf("quarantine %+v", q)
	}
	if res.Chunks != len(ml.Entries)-1 {
		t.Fatalf("chunks %d want %d", res.Chunks, len(ml.Entries)-1)
	}
	if got := report.Counts[gdelt.DefectMissingArchive]; got != 1 {
		t.Fatalf("missing-archive count %d want 1", got)
	}

	// Truncation and corruption land in the checksum tally, and their
	// surviving rows were still parsed.
	if got := report.Counts[gdelt.DefectChecksumMismatch]; got != 2 {
		t.Fatalf("checksum mismatches %d want 2 (truncated + corrupted)", got)
	}
	if res.DB.Mentions.Len() == 0 || res.DB.Events.Len() == 0 {
		t.Fatal("partial build is empty")
	}
	if err := res.DB.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFromRawDirOptsQuarantineThreshold(t *testing.T) {
	dir, _ := cleanDataset(t)
	ml := readMaster(t, dir)
	// Vanish half the archive, then ask for at most 10% damage.
	plan := make(map[string]faults.Fault)
	for i, e := range ml.Entries {
		if i%2 == 0 {
			plan[e.Path] = faults.Missing
		}
	}
	inj := faults.New(ingest.Dir(dir), faults.Config{Plan: plan})
	_, err := FromRawDirOpts(context.Background(), dir, Options{
		Source: inj, MaxQuarantineFrac: 0.1,
	})
	if !errors.Is(err, ErrTooManyQuarantined) {
		t.Fatalf("err %v want ErrTooManyQuarantined", err)
	}
	// The same damage under the default threshold degrades gracefully.
	res, err := FromRawDirOpts(context.Background(), dir,
		Options{Source: faults.New(ingest.Dir(dir), faults.Config{Plan: plan})})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quarantined) != len(plan) {
		t.Fatalf("quarantined %d want %d", len(res.Quarantined), len(plan))
	}
	if res.QuarantineFrac() < 0.4 || res.QuarantineFrac() > 0.6 {
		t.Fatalf("frac %v", res.QuarantineFrac())
	}
}

func TestFromRawDirOptsContextCancel(t *testing.T) {
	dir, _ := cleanDataset(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := FromRawDirOpts(ctx, dir, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v want Canceled", err)
	}
}
