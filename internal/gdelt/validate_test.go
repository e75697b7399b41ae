package gdelt

import (
	"strings"
	"testing"
)

func TestDefectClassString(t *testing.T) {
	if got := DefectMalformedMasterEntry.String(); !strings.Contains(got, "master list") {
		t.Fatalf("label %q", got)
	}
	if got := DefectClass(99).String(); !strings.Contains(got, "99") {
		t.Fatalf("out-of-range label %q", got)
	}
}

func TestValidationReportRecordAndTotal(t *testing.T) {
	var r ValidationReport
	r.Record(DefectMissingArchive, "chunk-1")
	r.Record(DefectMissingArchive, "chunk-2")
	r.Record(DefectBadRow, "")
	r.Record(DefectClass(-1), "ignored")
	r.Record(DefectClass(99), "ignored")
	if r.Counts[DefectMissingArchive] != 2 || r.Counts[DefectBadRow] != 1 {
		t.Fatalf("counts %v", r.Counts)
	}
	if r.Total() != 3 {
		t.Fatalf("total %d", r.Total())
	}
	if len(r.Examples[DefectMissingArchive]) != 2 {
		t.Fatalf("examples %v", r.Examples[DefectMissingArchive])
	}
	if len(r.Examples[DefectBadRow]) != 0 {
		t.Fatal("empty example should not be retained")
	}
}

func TestValidationReportExampleCap(t *testing.T) {
	var r ValidationReport
	for i := 0; i < 20; i++ {
		r.Record(DefectBadRow, "row")
	}
	if len(r.Examples[DefectBadRow]) != 5 {
		t.Fatalf("default cap is 5, have %d", len(r.Examples[DefectBadRow]))
	}
	r2 := ValidationReport{MaxExamples: 2}
	for i := 0; i < 20; i++ {
		r2.Record(DefectBadRow, "row")
	}
	if len(r2.Examples[DefectBadRow]) != 2 {
		t.Fatalf("explicit cap: %d", len(r2.Examples[DefectBadRow]))
	}
}

func TestValidateEvent(t *testing.T) {
	var r ValidationReport
	ev := Event{GlobalEventID: 1, Day: 20150301, SourceURL: "http://x"}
	ValidateEvent(&r, &ev, 20150302120000)
	if r.Total() != 0 {
		t.Fatalf("clean event produced defects: %v", r.Counts)
	}
	ev.SourceURL = ""
	ValidateEvent(&r, &ev, 20150302120000)
	if r.Counts[DefectMissingSourceURL] != 1 {
		t.Fatalf("missing url not counted: %v", r.Counts)
	}
	// Event date after the first mention's date: future-date defect.
	ev.SourceURL = "http://x"
	ev.Day = 20150305
	ValidateEvent(&r, &ev, 20150302120000)
	if r.Counts[DefectFutureEventDate] != 1 {
		t.Fatalf("future date not counted: %v", r.Counts)
	}
	// Unknown first mention: no future-date check possible.
	ValidateEvent(&r, &ev, 0)
	if r.Counts[DefectFutureEventDate] != 1 {
		t.Fatalf("zero first mention should not count: %v", r.Counts)
	}
}

func TestValidationReportString(t *testing.T) {
	var r ValidationReport
	r.Record(DefectMissingArchive, "c")
	s := r.String()
	if !strings.Contains(s, "Missing archives") || !strings.Contains(s, "1") {
		t.Fatalf("render %q", s)
	}
}
