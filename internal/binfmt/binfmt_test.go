package binfmt

import (
	"bytes"
	"path/filepath"
	"testing"

	"gdeltmine/internal/convert"
	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/store"
)

var cachedDB *store.DB

func testDB(t testing.TB) *store.DB {
	t.Helper()
	if cachedDB == nil {
		c, err := gen.Generate(gen.Small())
		if err != nil {
			t.Fatal(err)
		}
		res, err := convert.FromCorpus(c)
		if err != nil {
			t.Fatal(err)
		}
		cachedDB = res.DB
	}
	return cachedDB
}

func TestRoundTrip(t *testing.T) {
	db := testDB(t)
	var buf bytes.Buffer
	if err := Write(&buf, db); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta != db.Meta {
		t.Fatalf("meta %+v vs %+v", got.Meta, db.Meta)
	}
	if got.Sources.Len() != db.Sources.Len() {
		t.Fatalf("sources %d vs %d", got.Sources.Len(), db.Sources.Len())
	}
	for i := 0; i < db.Sources.Len(); i++ {
		if got.Sources.Name(int32(i)) != db.Sources.Name(int32(i)) {
			t.Fatalf("source %d name differs", i)
		}
	}
	if got.Events.Len() != db.Events.Len() || got.Mentions.Len() != db.Mentions.Len() {
		t.Fatalf("row counts differ")
	}
	for i := range db.Events.ID {
		if got.Events.ID[i] != db.Events.ID[i] ||
			got.Events.Interval[i] != db.Events.Interval[i] || got.Events.Country[i] != db.Events.Country[i] ||
			got.Events.NumArticles[i] != db.Events.NumArticles[i] ||
			got.Events.FirstMention[i] != db.Events.FirstMention[i] ||
			got.Events.SourceURL[i] != db.Events.SourceURL[i] {
			t.Fatalf("event row %d differs", i)
		}
	}
	for i := range db.Mentions.EventRow {
		if got.Mentions.EventRow[i] != db.Mentions.EventRow[i] ||
			got.Mentions.Source[i] != db.Mentions.Source[i] ||
			got.Mentions.Interval[i] != db.Mentions.Interval[i] ||
			got.Mentions.Delay[i] != db.Mentions.Delay[i] ||
			got.Mentions.DocLen[i] != db.Mentions.DocLen[i] ||
			got.Mentions.Tone[i] != db.Mentions.Tone[i] ||
			got.Mentions.Confidence[i] != db.Mentions.Confidence[i] {
			t.Fatalf("mention row %d differs", i)
		}
	}
	// Report survives.
	for c := range db.Report.Counts {
		if got.Report.Counts[c] != db.Report.Counts[c] {
			t.Fatalf("report class %d: %d vs %d", c, got.Report.Counts[c], db.Report.Counts[c])
		}
	}
	// Derived indexes were rebuilt and validate.
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if got.NumQuarters() != db.NumQuarters() {
		t.Fatalf("quarters %d vs %d", got.NumQuarters(), db.NumQuarters())
	}
}

func TestFileRoundTrip(t *testing.T) {
	db := testDB(t)
	path := filepath.Join(t.TempDir(), "db.gdmb")
	if err := WriteFile(path, db); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mentions.Len() != db.Mentions.Len() {
		t.Fatal("file round trip lost rows")
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("NOPE0000"))); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestReadRejectsBadVersion(t *testing.T) {
	db := testDB(t)
	var buf bytes.Buffer
	if err := Write(&buf, db); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[4] = 99 // version
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestReadDetectsCorruption(t *testing.T) {
	db := testDB(t)
	var buf bytes.Buffer
	if err := Write(&buf, db); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip one byte in the middle of the payload area.
	data[len(data)/2] ^= 0xFF
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatal("corruption not detected")
	}
}

func TestReadDetectsTruncation(t *testing.T) {
	db := testDB(t)
	var buf bytes.Buffer
	if err := Write(&buf, db); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := Read(bytes.NewReader(data[:len(data)/3])); err == nil {
		t.Fatal("truncation not detected")
	}
}

func TestReadRejectsIncomplete(t *testing.T) {
	// A container with only META then END must be rejected.
	var buf bytes.Buffer
	buf.Write(magic[:])
	buf.Write([]byte{Version, 0, 0, 0})
	if err := writeSection(&buf, tagMeta, encodeMeta(store.Meta{Start: 20150218000000, Intervals: 96})); err != nil {
		t.Fatal(err)
	}
	if err := writeSection(&buf, tagEnd, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); err == nil {
		t.Fatal("incomplete db accepted")
	}
}

func TestUnknownSectionSkipped(t *testing.T) {
	db := testDB(t)
	var buf bytes.Buffer
	buf.Write(magic[:])
	buf.Write([]byte{Version, 0, 0, 0})
	writeSection(&buf, [4]byte{'X', 'T', 'R', 'A'}, []byte("future extension"))
	writeSection(&buf, tagMeta, encodeMeta(db.Meta))
	writeSection(&buf, tagSources, encodeStrings(db.Sources.Names()))
	writeSection(&buf, tagEvents, encodeEvents(&db.Events))
	writeSection(&buf, tagMentions, encodeMentions(&db.Mentions))
	writeSection(&buf, tagEnd, nil)
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Events.Len() != db.Events.Len() {
		t.Fatal("round trip with unknown section lost data")
	}
	// Absent report defaults to empty.
	if got.Report == nil || got.Report.Total() != 0 {
		t.Fatal("missing report should default to empty")
	}
}

func TestDecodeMetaRejectsImplausible(t *testing.T) {
	if _, err := decodeMeta(encodeMeta(store.Meta{Start: 0, Intervals: 5})); err == nil {
		t.Fatal("zero start accepted")
	}
	if _, err := decodeMeta(encodeMeta(store.Meta{Start: 20150218000000, Intervals: 0})); err == nil {
		t.Fatal("zero intervals accepted")
	}
	if _, err := decodeMeta(nil); err == nil {
		t.Fatal("empty meta accepted")
	}
}

// TestDecodeEventsRejectsBadCountry: a checksummed event section whose
// country lies outside gdelt.Countries is refused, not left to index the
// per-country bitmaps out of range.
func TestDecodeEventsRejectsBadCountry(t *testing.T) {
	ev := store.MakeEventTable(1)
	ev.ID = append(ev.ID, 7)
	ev.Interval = append(ev.Interval, 0)
	ev.NumArticles = append(ev.NumArticles, 0)
	ev.FirstMention = append(ev.FirstMention, 0)
	ev.SourceURL = append(ev.SourceURL, "x")
	for _, c := range []int32{-1, int32(len(gdelt.Countries)) - 1} {
		ev.Country = append(ev.Country[:0], c)
		if _, err := decodeEvents(encodeEvents(&ev)); err != nil {
			t.Fatalf("country %d refused: %v", c, err)
		}
	}
	for _, c := range []int32{-2, int32(len(gdelt.Countries))} {
		ev.Country = append(ev.Country[:0], c)
		if _, err := decodeEvents(encodeEvents(&ev)); err == nil {
			t.Fatalf("country %d accepted", c)
		}
	}
}

func TestReportRoundTripExamples(t *testing.T) {
	r := &gdelt.ValidationReport{}
	r.Record(gdelt.DefectMissingArchive, "chunk-7")
	r.Record(gdelt.DefectBadRow, "row x")
	r.Record(gdelt.DefectBadRow, "row y")
	got, err := decodeReport(encodeReport(r))
	if err != nil {
		t.Fatal(err)
	}
	if got.Counts[gdelt.DefectMissingArchive] != 1 || got.Counts[gdelt.DefectBadRow] != 2 {
		t.Fatalf("counts %v", got.Counts)
	}
	if len(got.Examples[gdelt.DefectBadRow]) != 2 || got.Examples[gdelt.DefectBadRow][1] != "row y" {
		t.Fatalf("examples %v", got.Examples)
	}
}

func TestCompressionIsEffective(t *testing.T) {
	db := testDB(t)
	var buf bytes.Buffer
	if err := Write(&buf, db); err != nil {
		t.Fatal(err)
	}
	// The binary format should be far smaller than a naive fixed-width
	// layout (~40 bytes/mention + ~60 bytes/event).
	naive := db.Mentions.Len()*40 + db.Events.Len()*60
	if buf.Len() >= naive {
		t.Fatalf("binary size %d not smaller than naive %d", buf.Len(), naive)
	}
}
