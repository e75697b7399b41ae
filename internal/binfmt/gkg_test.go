package binfmt

import (
	"bytes"
	"testing"
)

func TestGKGRoundTrip(t *testing.T) {
	db := testDB(t) // Small corpus has GKG enabled
	if db.GKG == nil {
		t.Fatal("test db lacks GKG")
	}
	var buf bytes.Buffer
	if err := Write(&buf, db); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.GKG == nil {
		t.Fatal("GKG lost in round trip")
	}
	a, b := &db.GKG.Table, &got.GKG.Table
	if a.Len() != b.Len() {
		t.Fatalf("rows %d vs %d", a.Len(), b.Len())
	}
	for r := 0; r < a.Len(); r++ {
		if a.Interval[r] != b.Interval[r] || a.Translated[r] != b.Translated[r] {
			t.Fatalf("row %d scalar columns differ", r)
		}
		at, bt := a.RowThemes(r), b.RowThemes(r)
		if len(at) != len(bt) {
			t.Fatalf("row %d theme count", r)
		}
		for k := range at {
			if db.GKG.Themes.Name(at[k]) != got.GKG.Themes.Name(bt[k]) {
				t.Fatalf("row %d theme %d differs", r, k)
			}
		}
	}
	if got.GKG.Themes.Len() != db.GKG.Themes.Len() ||
		got.GKG.Persons.Len() != db.GKG.Persons.Len() {
		t.Fatal("dictionary sizes differ")
	}
	// Theme postings rebuilt correctly.
	for th := int32(0); th < int32(got.GKG.Themes.Len()); th++ {
		name := got.GKG.Themes.Name(th)
		orig := db.GKG.Themes.Lookup(name)
		if len(got.GKG.ThemeRows(th)) != len(db.GKG.ThemeRows(orig)) {
			t.Fatalf("theme %s postings differ", name)
		}
	}
}

func TestDBWithoutGKGStillLoads(t *testing.T) {
	db := testDB(t)
	// Serialize without the GKG section by nulling it on a shallow copy.
	cp := *db
	cp.GKG = nil
	var buf bytes.Buffer
	if err := Write(&buf, &cp); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.GKG != nil {
		t.Fatal("GKG appeared from nowhere")
	}
}

func TestGKGCorruptionDetected(t *testing.T) {
	db := testDB(t)
	var buf bytes.Buffer
	if err := Write(&buf, db); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Find the GKGS tag and corrupt a byte well inside its payload.
	idx := bytes.Index(data, []byte("GKGS"))
	if idx < 0 {
		t.Fatal("no GKGS section")
	}
	data[idx+100] ^= 0xFF
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatal("corruption not detected")
	}
}
