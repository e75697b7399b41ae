package store

import (
	"fmt"

	"gdeltmine/internal/gdelt"
)

// The row rules: how a parsed event or mention becomes a stored row. The
// batch build (Builder.AddEvent, AddMention and Finish), the append path
// (DB.appendRows) and the sharded tail's pre-check of a tick apply these
// and no copy of them, so appending a suffix of a feed equals rebuilding
// from the whole feed. Each runs once per row and is small enough to
// inline; only the defect record of a dropped row is a call.

// WebMention reports whether mn is a web mention, the only kind a store
// keeps.
func WebMention(mn *gdelt.Mention) bool {
	return mn.MentionType == gdelt.MentionTypeWeb
}

// KeepMention is the mention rule: a store keeps mn when it is a web
// mention captured inside the archive span of intervals capture intervals.
// iv is mn's capture interval relative to the archive start
// (MentionTime.IntervalIndex() minus the start's index); the caller
// computes it, since it stores it, and passing it keeps this test within
// the inlining budget. dropMention files a mention it drops.
func KeepMention(mn *gdelt.Mention, iv int64, intervals int32) bool {
	return WebMention(mn) && 0 <= iv && iv < int64(intervals)
}

// dropMention files a mention KeepMention drops: a web mention, captured
// outside the archive span, is a bad row in report; a non-web one is no
// defect.
func dropMention(report *gdelt.ValidationReport, mn *gdelt.Mention) {
	if WebMention(mn) {
		report.Record(gdelt.DefectBadRow,
			fmt.Sprintf("mention of event %d at %v outside archive", mn.GlobalEventID, mn.MentionTime))
	}
}

// mentionDelay returns the delay of a mention captured at iv of an event
// captured at evIv, in capture intervals counting both ends, floored at 0
// and capped at a year and a day.
func mentionDelay(iv int32, evIv int64) int32 {
	return int32(min(max(int64(iv)-evIv+1, 0), gdelt.IntervalsPerYear+gdelt.IntervalsPerDay))
}

// eventInterval returns the stored interval of ev, provisional until its
// first mention refines it (EventTable.countMention): DateAdded, the
// event's first capture, clamped into the archive.
func eventInterval(ev *gdelt.Event, base int64, intervals int32) int32 {
	return clampInterval(ev.DateAdded.IntervalIndex()-base, intervals)
}

// eventCountry returns the stored country of ev: ActionCountry's index in
// gdelt.Countries, -1 when untagged or unknown.
func eventCountry(ev *gdelt.Event) int32 {
	return int32(gdelt.CountryIndex(ev.ActionCountry))
}

// countMention counts one more mention of event row r, captured at iv, of
// an event captured at evIv, and reports whether it is the event's first:
// the first pins FirstMention and refines the event's interval from the
// mention's EventTimeDate.
func (t *EventTable) countMention(r, iv int32, evIv int64, intervals int32) (first bool) {
	first = t.NumArticles[r] == 0
	if first {
		t.FirstMention[r] = iv
		t.Interval[r] = clampInterval(evIv, intervals)
	}
	t.NumArticles[r]++
	return first
}

func clampInterval(iv int64, n int32) int32 {
	return int32(min(max(iv, 0), int64(n)-1))
}
