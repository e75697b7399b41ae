package gdelt

import (
	"fmt"
	"strings"
)

// DefectClass enumerates the dataset problems of Table II, plus the parse
// failure classes the conversion pipeline can encounter.
type DefectClass int

const (
	// DefectMalformedMasterEntry counts master list lines that do not parse.
	DefectMalformedMasterEntry DefectClass = iota
	// DefectMissingArchive counts master entries whose chunk file is absent
	// or unreadable.
	DefectMissingArchive
	// DefectMissingSourceURL counts events whose SourceURL field is empty.
	DefectMissingSourceURL
	// DefectFutureEventDate counts events whose recorded date lies after the
	// publication time of the first article mentioning them.
	DefectFutureEventDate
	// DefectBadRow counts rows that fail to parse at all.
	DefectBadRow
	// DefectChecksumMismatch counts chunk files whose contents do not match
	// the master list checksum.
	DefectChecksumMismatch
	numDefectClasses
)

var defectNames = [numDefectClasses]string{
	"Missformatted dataset master list entries",
	"Missing archives for dataset chunks",
	"Missing event source URL",
	"Recorded event date is in future compared to the recorded first article publication date",
	"Unparseable table rows",
	"Chunk checksum mismatches",
}

// String returns the Table II row label for the defect class.
func (c DefectClass) String() string {
	if c < 0 || c >= numDefectClasses {
		return fmt.Sprintf("DefectClass(%d)", int(c))
	}
	return defectNames[c]
}

// ValidationReport tallies defects found while converting a dataset, with a
// bounded number of retained examples per class for diagnostics.
type ValidationReport struct {
	Counts   [numDefectClasses]int64
	Examples [numDefectClasses][]string
	// MaxExamples bounds retained examples per class; zero means 5.
	MaxExamples int
}

// Record tallies one defect with an optional example description.
func (r *ValidationReport) Record(c DefectClass, example string) {
	if c < 0 || c >= numDefectClasses {
		return
	}
	r.Counts[c]++
	maxEx := r.MaxExamples
	if maxEx == 0 {
		maxEx = 5
	}
	if example != "" && len(r.Examples[c]) < maxEx {
		r.Examples[c] = append(r.Examples[c], example)
	}
}

// Total returns the total number of recorded defects.
func (r *ValidationReport) Total() int64 {
	var t int64
	for _, c := range r.Counts {
		t += c
	}
	return t
}

// String renders the report in the layout of Table II.
func (r *ValidationReport) String() string {
	var b strings.Builder
	b.WriteString("Problems found during the dataset analysis\n")
	for c := DefectClass(0); c < numDefectClasses; c++ {
		fmt.Fprintf(&b, "  %-90s %d\n", c.String(), r.Counts[c])
	}
	return b.String()
}

// ValidateEvent checks a parsed event against the Table II taxonomy that is
// visible at the single-event level and records findings. firstMention is
// the earliest mention timestamp for the event, or zero when unknown.
func ValidateEvent(r *ValidationReport, ev *Event, firstMention Timestamp) {
	if ev.SourceURL == "" {
		r.Record(DefectMissingSourceURL, fmt.Sprintf("event %d", ev.GlobalEventID))
	}
	if firstMention != 0 && ev.Day > firstMention.YYYYMMDD() {
		r.Record(DefectFutureEventDate,
			fmt.Sprintf("event %d: day %d after first mention %s", ev.GlobalEventID, ev.Day, firstMention))
	}
}
