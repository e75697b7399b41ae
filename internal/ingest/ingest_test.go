package ingest

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"gdeltmine/internal/gdelt"
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

func TestReaderChecksumMismatchKeepsData(t *testing.T) {
	data := []byte("r1\nr2\n")
	entry := entryFor("x.mentions.csv", data)
	// Serve different bytes than the master list promises.
	got, err := Read(context.Background(), Mem(map[string][]byte{"x.mentions.csv": []byte("r1\n")}), entry)
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
	_, err := Read(context.Background(), Mem(nil), entryFor("gone.export.csv", nil))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("err %v", err)
	}
}

func TestReaderContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Read(ctx, Mem(map[string][]byte{"x.export.csv": nil}), entryFor("x.export.csv", nil)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v", err)
	}
}
