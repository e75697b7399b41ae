package convert

import (
	"testing"

	"gdeltmine/internal/gen"
	"gdeltmine/internal/store"
)

func TestGKGThroughRawPipeline(t *testing.T) {
	cfg := gen.Small()
	cfg.DefectMissingArchives = 0
	c, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	res, err := gen.WriteRaw(c, dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.FilesPerChunk != 3 {
		t.Fatalf("files per chunk %d want 3 with GKG", res.FilesPerChunk)
	}
	conv, err := FromRawDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	db := conv.DB
	if db.GKG == nil {
		t.Fatal("GKG not ingested")
	}
	// One GKG record per mention.
	if db.GKG.Table.Len() != db.Mentions.Len() {
		t.Fatalf("gkg rows %d vs mentions %d", db.GKG.Table.Len(), db.Mentions.Len())
	}
	direct, err := FromCorpus(c)
	if err != nil {
		t.Fatal(err)
	}
	if db.GKG.Table.Len() != direct.DB.GKG.Table.Len() {
		t.Fatal("raw and direct GKG row counts differ")
	}
	if db.GKG.Themes.Len() != direct.DB.GKG.Themes.Len() {
		t.Fatal("theme dictionaries differ")
	}
	// Total theme annotations agree.
	occurrences := func(g *store.GKGStore) (n int) {
		for th := range int32(g.Themes.Len()) {
			n += len(g.ThemeRows(th))
		}
		return n
	}
	if occurrences(db.GKG) != occurrences(direct.DB.GKG) {
		t.Fatal("theme annotation totals differ")
	}
}

func TestGKGDisabled(t *testing.T) {
	cfg := gen.Small()
	cfg.GKG = false
	c, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	res, err := gen.WriteRaw(c, dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.FilesPerChunk != 2 {
		t.Fatalf("files per chunk %d want 2 without GKG", res.FilesPerChunk)
	}
	conv, err := FromRawDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if conv.DB.GKG != nil {
		t.Fatal("GKG present despite being disabled")
	}
}
