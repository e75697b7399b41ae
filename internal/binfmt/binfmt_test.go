package binfmt

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"strings"
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
	if _, err := readBoth(t, data); err == nil {
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
	if _, err := readBoth(t, data[:len(data)/3]); err == nil {
		t.Fatal("truncation not detected")
	}
}

func TestReadRejectsIncomplete(t *testing.T) {
	// A container with only META then END must be rejected.
	var buf bytes.Buffer
	buf.Write(magic[:])
	buf.Write([]byte{Version, 0, 0, 0})
	if err := WriteSection(&buf, tagMeta, encodeMeta(store.Meta{Start: 20150218000000, Intervals: 96})); err != nil {
		t.Fatal(err)
	}
	if err := WriteSection(&buf, tagEnd, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); err == nil {
		t.Fatal("incomplete db accepted")
	}
}

// TestAbsentReportLoadsEmpty: a database without a report section loads
// with an empty report.
func TestAbsentReportLoadsEmpty(t *testing.T) {
	db := testDB(t)
	var buf bytes.Buffer
	buf.Write(magic[:])
	buf.Write([]byte{Version, 0, 0, 0})
	WriteSection(&buf, tagMeta, encodeMeta(db.Meta))
	WriteSection(&buf, tagSources, encodeStrings(db.Sources.Names()))
	WriteSection(&buf, tagEvents, encodeEvents(&db.Events))
	WriteSection(&buf, tagMentions, encodeMentions(&db.Mentions))
	WriteSection(&buf, tagEnd, nil)
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Events.Len() != db.Events.Len() {
		t.Fatal("round trip without a report lost data")
	}
	if got.Report == nil || got.Report.Total() != 0 {
		t.Fatal("missing report should default to empty")
	}
}

// TestDamagedSectionTagsRefused: the section CRC covers the payload, not
// the tag, so one flipped byte in a tag leaves every CRC valid. A flipped
// GKG or report tag must not load the database without its GKG or with an
// empty Table II, and a section written twice must not replace the first:
// Read refuses each, naming the tag.
func TestDamagedSectionTagsRefused(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, testDB(t)); err != nil {
		t.Fatal(err)
	}
	for name, c := range damagedTags(t, buf.Bytes()) {
		_, err := readBoth(t, c.data)
		if err == nil || !strings.Contains(err.Error(), c.tag) {
			t.Errorf("%s: err %v, want a refusal naming %s", name, err, c.tag)
		}
	}
}

// damagedFile is a written database with a damaged section tag, and the
// tag Read's refusal names.
type damagedFile struct {
	data []byte
	tag  string
}

// damagedTags derives from a written database the files whose section
// tags are damaged: the GKG and the report tag each with one flipped byte,
// and the meta section written twice.
func damagedTags(tb testing.TB, valid []byte) map[string]damagedFile {
	tb.Helper()
	out := map[string]damagedFile{}
	for name, tag := range map[string][4]byte{"flip-gkg-tag": tagGKG, "flip-report-tag": tagReport} {
		data := bytes.Clone(valid)
		off, _ := sectionSpan(tb, data, tag)
		data[off] ^= 0x20 // "GKGS" -> "gKGS", "REPT" -> "rEPT"
		out[name] = damagedFile{data, string(data[off : off+4])}
	}
	lo, hi := sectionSpan(tb, valid, tagMeta)
	end, _ := sectionSpan(tb, valid, tagEnd)
	repeated := append(append(bytes.Clone(valid[:end]), valid[lo:hi]...), valid[end:]...)
	out["repeated-meta"] = damagedFile{repeated, string(tagMeta[:])}
	return out
}

// sectionSpan returns the byte range [lo, hi) of the section tagged tag in
// a written database: header, payload and CRC.
func sectionSpan(tb testing.TB, data []byte, tag [4]byte) (lo, hi int) {
	tb.Helper()
	for off := 8; off+12 <= len(data); {
		next := off + 12 + int(binary.LittleEndian.Uint64(data[off+4:])) + 4
		if [4]byte(data[off:off+4]) == tag {
			return off, next
		}
		off = next
	}
	tb.Fatalf("no section %q", tag)
	return 0, 0
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
