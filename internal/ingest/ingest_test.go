package ingest

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/retry"
)

func entryFor(path string, data []byte) gdelt.MasterEntry {
	return gdelt.MasterEntry{Size: int64(len(data)), Checksum: gdelt.Checksum32(data), Path: path}
}

func TestDirSource(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "c.export.csv"), []byte("hello\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src := Dir(dir)
	data, err := src.ReadChunk(context.Background(), "c.export.csv")
	if err != nil || string(data) != "hello\n" {
		t.Fatalf("data %q err %v", data, err)
	}
	if _, err := src.ReadChunk(context.Background(), "absent.csv"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("want not-exist, got %v", err)
	}
	// A master entry pointing at a directory is a permanent read failure,
	// not a crash.
	if err := os.Mkdir(filepath.Join(dir, "weird.export.csv"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := src.ReadChunk(context.Background(), "weird.export.csv"); err == nil {
		t.Fatal("reading a directory should fail")
	}
}

// flaky fails reads with a transient error until the remaining counter
// drains, then delegates to the wrapped map.
type flaky struct {
	remaining int
	chunks    map[string][]byte
}

func (f *flaky) ReadChunk(ctx context.Context, path string) ([]byte, error) {
	if f.remaining > 0 {
		f.remaining--
		return nil, retry.Transientf("flaky: %s", path)
	}
	return Mem(f.chunks).ReadChunk(ctx, path)
}

func instantPolicy(attempts int) retry.Policy {
	return retry.Policy{MaxAttempts: attempts,
		Sleep: func(ctx context.Context, d time.Duration) error { return ctx.Err() }}
}

func TestReaderRetriesTransient(t *testing.T) {
	data := []byte("r1\nr2\n")
	src := &flaky{remaining: 2, chunks: map[string][]byte{"x.mentions.csv": data}}
	r := &Reader{Src: src, Retry: instantPolicy(4)}
	got, err := r.Read(context.Background(), entryFor("x.mentions.csv", data))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Fatalf("data %q", got)
	}
}

func TestReaderBudgetExhaustion(t *testing.T) {
	src := &flaky{remaining: 10, chunks: map[string][]byte{}}
	r := &Reader{Src: src, Retry: instantPolicy(3)}
	_, err := r.Read(context.Background(), entryFor("x.mentions.csv", nil))
	if !errors.Is(err, retry.ErrBudgetExhausted) {
		t.Fatalf("err %v", err)
	}
}

func TestReaderChecksumMismatchKeepsData(t *testing.T) {
	data := []byte("r1\nr2\n")
	entry := entryFor("x.mentions.csv", data)
	// Serve different bytes than the master list promises.
	r := &Reader{Src: Mem(map[string][]byte{"x.mentions.csv": []byte("r1\n")}), Retry: instantPolicy(1)}
	got, err := r.Read(context.Background(), entry)
	var ce *ChecksumError
	if !errors.As(err, &ce) {
		t.Fatalf("want ChecksumError, got %v", err)
	}
	if string(got) != "r1\n" {
		t.Fatalf("mismatched data must still be returned, got %q", got)
	}
	if ce.WantSize != entry.Size || ce.GotSize != 3 {
		t.Fatalf("sizes %+v", ce)
	}
}

func TestReaderPermanentMissing(t *testing.T) {
	r := &Reader{Src: Mem(nil), Retry: instantPolicy(5)}
	_, err := r.Read(context.Background(), entryFor("gone.export.csv", nil))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("err %v", err)
	}
}

func TestReaderContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := &Reader{Src: Mem(map[string][]byte{"x.export.csv": nil}), Retry: retry.DefaultPolicy()}
	if _, err := r.Read(ctx, entryFor("x.export.csv", nil)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v", err)
	}
}
