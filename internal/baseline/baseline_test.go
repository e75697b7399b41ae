package baseline

import (
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
