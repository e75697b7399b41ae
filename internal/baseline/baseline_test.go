package baseline

import (
	"runtime"
	"slices"
	"testing"

	"gdeltmine/internal/convert"
	"gdeltmine/internal/engine"
	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/queries"
)

func TestRowStoreCrossCountryMatchesEngine(t *testing.T) {
	c, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	res, err := convert.FromCorpus(c)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(res.DB)
	cr, err := queries.CountryQuery(e)
	if err != nil {
		t.Fatal(err)
	}
	rs := NewRowStore(res.DB)
	got := rs.CrossCountry()
	if got.Rows != cr.Cross.Rows || got.Cols != cr.Cross.Cols {
		t.Fatal("shape mismatch")
	}
	for i := range got.Data {
		if got.Data[i] != cr.Cross.Data[i] {
			t.Fatalf("cell %d: baseline %d engine %d", i, got.Data[i], cr.Cross.Data[i])
		}
	}
}

func TestRowStoreSlowArticles(t *testing.T) {
	c, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	res, err := convert.FromCorpus(c)
	if err != nil {
		t.Fatal(err)
	}
	rs := NewRowStore(res.DB)
	got := rs.CountSlowArticles(gdelt.IntervalsPerDay)
	e := engine.New(res.DB)
	want := CountMentions(e, func(row int) bool {
		return res.DB.Mentions.Delay[row] > gdelt.IntervalsPerDay
	})
	if got != want {
		t.Fatalf("slow count %d want %d", got, want)
	}
}

func TestRawRescanMatchesConversion(t *testing.T) {
	cfg := gen.Small()
	cfg.DefectMissingArchives = 0 // identical inputs for both paths
	c, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := gen.WriteRaw(c, dir); err != nil {
		t.Fatal(err)
	}
	conv, err := convert.FromRawDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := queries.CountryQuery(engine.New(conv.DB))
	if err != nil {
		t.Fatal(err)
	}
	rr, err := NewRawRescan(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rr.CrossCountry()
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Data {
		if got.Data[i] != cr.Cross.Data[i] {
			t.Fatalf("cell %d: rescan %d engine %d", i, got.Data[i], cr.Cross.Data[i])
		}
	}
}

func TestNewRawRescanMissingDir(t *testing.T) {
	if _, err := NewRawRescan(t.TempDir()); err == nil {
		t.Fatal("missing master list should fail")
	}
}

// TestRawRescanWidthChangesNothing: the re-scan reads and parses files
// parallel.DefaultWorkers() at a time, and its matrix at GOMAXPROCS 1
// equals its matrix at 4 — on the Small preset, withheld archives
// included.
func TestRawRescanWidthChangesNothing(t *testing.T) {
	c, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := gen.WriteRaw(c, dir); err != nil {
		t.Fatal(err)
	}
	rr, err := NewRawRescan(dir)
	if err != nil {
		t.Fatal(err)
	}
	cross := func(procs int) []int64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		m, err := rr.CrossCountry()
		if err != nil {
			t.Fatal(err)
		}
		return m.Data
	}
	serial, wide := cross(1), cross(4)
	if !slices.Equal(serial, wide) {
		t.Fatal("cross-country matrix differs between widths 1 and 4")
	}
	var total int64
	for _, v := range serial {
		total += v
	}
	if total == 0 {
		t.Fatal("empty matrix")
	}
}
