package binfmt

import (
	"bytes"
	"slices"
	"testing"

	"gdeltmine/internal/store"
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
	}
	if !slices.Equal(got.GKG.Themes.Names(), db.GKG.Themes.Names()) {
		t.Fatal("theme dictionaries differ")
	}
	for th := int32(0); th < int32(got.GKG.Themes.Len()); th++ {
		if !slices.Equal(got.GKG.ThemeRows(th), db.GKG.ThemeRows(th)) {
			t.Fatalf("theme %s postings differ", got.GKG.Themes.Name(th))
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

// gkgSection lays out a GKG section payload as the format describes it,
// from parts a test can tamper with: the theme names, the rows' intervals
// and translated flags, the postings lists as written (each delta-encoded
// from 0, so a descending list wraps) and the total of row ids the section
// records.
func gkgSection(names []string, iv []int32, tr []bool, lists [][]int32, total int) []byte {
	out := encodeStrings(names)
	out = putUvarint(out, uint64(len(iv)))
	var prev int32
	for _, v := range iv {
		out = putUvarint(out, uint64(v-prev))
		prev = v
	}
	for _, v := range tr {
		b := byte(0)
		if v {
			b = 1
		}
		out = append(out, b)
	}
	out = putUvarint(out, uint64(len(lists)))
	for _, l := range lists {
		out = putUvarint(out, uint64(len(l)))
	}
	out = putUvarint(out, uint64(total))
	for _, l := range lists {
		prev = 0
		for _, r := range l {
			out = putUvarint(out, uint64(r-prev))
			prev = r
		}
	}
	return out
}

// TestDecodeGKGRejectsTampered: a GKG section whose postings break an
// invariant is refused at load — a list for a theme the dictionary lacks,
// rows descending within a theme, a row past the table, list lengths that
// point past the ids the section holds — never assembled into a store.
func TestDecodeGKGRejectsTampered(t *testing.T) {
	names := []string{"A", "B"}
	iv := []int32{1, 1, 5}
	tr := []bool{false, true, false}
	lists := [][]int32{{0, 0, 2}, {1}} // row 0 lists A twice
	valid := gkgSection(names, iv, tr, lists, 4)
	db := &store.DB{}
	if err := decodeGKGInto(db, valid); err != nil {
		t.Fatalf("untampered section: %v", err)
	}
	if !bytes.Equal(encodeGKG(db.GKG), valid) {
		t.Fatal("gkgSection does not lay out what encodeGKG writes")
	}
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"theme id out of range", gkgSection(names, iv, tr, append(lists, []int32{2}), 5)},
		{"rows descending within a theme", gkgSection(names, iv, tr, [][]int32{{2, 0, 0}, {1}}, 4)},
		{"row past the table", gkgSection(names, iv, tr, [][]int32{{0, 0, 3}, {1}}, 4)},
		{"postings pointer past the ids", gkgSection(names, iv, tr, lists, 3)},
	} {
		if err := decodeGKGInto(&store.DB{}, tc.payload); err == nil {
			t.Errorf("%s: section accepted", tc.name)
		} else {
			t.Logf("%s: %v", tc.name, err)
		}
	}
}
