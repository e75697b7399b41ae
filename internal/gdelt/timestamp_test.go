package gdelt

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestTimestampComponents(t *testing.T) {
	ts := Timestamp(20160612233045)
	if ts.Year() != 2016 || ts.Month() != 6 || ts.Day() != 12 ||
		ts.Hour() != 23 || ts.Minute() != 30 || ts.Second() != 45 {
		t.Fatalf("components of %d wrong", ts)
	}
	if ts.YYYYMMDD() != 20160612 {
		t.Fatalf("yyyymmdd %d", ts.YYYYMMDD())
	}
}

func TestMakeTimestampRoundTrip(t *testing.T) {
	ts := MakeTimestamp(2019, 12, 31, 23, 45, 0)
	if ts != 20191231234500 {
		t.Fatalf("make %d", ts)
	}
	if got := TimestampFromTime(ts.Time()); got != ts {
		t.Fatalf("round trip %d -> %d", ts, got)
	}
}

func TestTimestampValid(t *testing.T) {
	valid := []Timestamp{20150218000000, 20191231235959, EpochTimestamp}
	for _, ts := range valid {
		if !ts.Valid() {
			t.Fatalf("%d should be valid", ts)
		}
	}
	invalid := []Timestamp{0, -1, 20150232000000, 20151301000000, 20150218240000,
		20150218006100, 19000101000000, 20150230120000}
	for _, ts := range invalid {
		if ts.Valid() {
			t.Fatalf("%d should be invalid", ts)
		}
	}
}

func TestIntervalIndex(t *testing.T) {
	if got := EpochTimestamp.IntervalIndex(); got != 0 {
		t.Fatalf("epoch interval %d", got)
	}
	if got := Timestamp(20150218001500).IntervalIndex(); got != 1 {
		t.Fatalf("00:15 interval %d", got)
	}
	if got := Timestamp(20150218001459).IntervalIndex(); got != 0 {
		t.Fatalf("00:14:59 interval %d", got)
	}
	if got := Timestamp(20150219000000).IntervalIndex(); got != IntervalsPerDay {
		t.Fatalf("next day interval %d want %d", got, IntervalsPerDay)
	}
	// Before epoch is negative.
	if got := Timestamp(20150217234500).IntervalIndex(); got != -1 {
		t.Fatalf("pre-epoch interval %d want -1", got)
	}
}

func TestIntervalStartRoundTrip(t *testing.T) {
	f := func(raw uint32) bool {
		idx := int64(raw % 170000) // within the archive span
		ts := IntervalStart(idx)
		return ts.IntervalIndex() == idx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntervalConstants(t *testing.T) {
	if IntervalsPerDay != 96 {
		t.Fatalf("IntervalsPerDay %d", IntervalsPerDay)
	}
	if IntervalsPerYear != 35040 {
		t.Fatalf("IntervalsPerYear %d", IntervalsPerYear)
	}
}

func TestParseTimestamp(t *testing.T) {
	ts, err := ParseTimestamp("20150218230000")
	if err != nil || ts != 20150218230000 {
		t.Fatalf("parse: %v %d", err, ts)
	}
	for _, bad := range []string{"", "2015", "2015021823000x", "201502182300001"} {
		if _, err := ParseTimestamp(bad); err == nil {
			t.Fatalf("parse %q should fail", bad)
		}
	}
}

func TestTimestampString(t *testing.T) {
	if s := Timestamp(20150218000000).String(); s != "20150218000000" {
		t.Fatalf("string %q", s)
	}
	// Padded to 14 digits even for (invalid) small values.
	if s := Timestamp(5).String(); s != "00000000000005" {
		t.Fatalf("string %q", s)
	}
	// String is fmt's %014d for every value, negative and overlong ones
	// included.
	check := func(v int64) bool {
		return Timestamp(v).String() == fmt.Sprintf("%014d", v)
	}
	for _, v := range []int64{0, -1, -5, 1e13, 1e14, -1e13, -1e14, math.MaxInt64, math.MinInt64} {
		if !check(v) {
			t.Fatalf("%d: String %q, %%014d %q", v, Timestamp(v).String(), fmt.Sprintf("%014d", v))
		}
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEpochAgreement(t *testing.T) {
	if !Epoch.Equal(time.Date(2015, 2, 18, 0, 0, 0, 0, time.UTC)) {
		t.Fatal("epoch mismatch")
	}
	if TimestampFromTime(Epoch) != EpochTimestamp {
		t.Fatal("EpochTimestamp mismatch")
	}
}

func TestMentionDelay(t *testing.T) {
	mn := Mention{
		EventTime:   20150218000000,
		MentionTime: 20150218000000,
	}
	if d := mn.Delay(); d != 1 {
		t.Fatalf("same-interval delay %d want 1", d)
	}
	mn.MentionTime = 20150218040000 // 16 intervals later
	if d := mn.Delay(); d != 17 {
		t.Fatalf("4h delay %d want 17", d)
	}
	mn.MentionTime = 20150217000000 // before the event: defect, clamps
	if d := mn.Delay(); d != 0 {
		t.Fatalf("negative delay %d want 0", d)
	}
}

// The time.Time reference the integer calendar must agree with: the
// conversions as time.Date and time.Unix compute them.

func refIntervalIndex(ts Timestamp) int64 {
	sec := ts.Time().Unix() - Epoch.Unix()
	if sec >= 0 {
		return sec / IntervalSeconds
	}
	return -((-sec + IntervalSeconds - 1) / IntervalSeconds)
}

func refIntervalStart(idx int64) Timestamp {
	return TimestampFromTime(time.Unix(Epoch.Unix()+idx*IntervalSeconds, 0))
}

func refValid(ts Timestamp) bool {
	if ts <= 0 {
		return false
	}
	y, mo, d := ts.Year(), ts.Month(), ts.Day()
	h, mi, s := ts.Hour(), ts.Minute(), ts.Second()
	if y < 1979 || y > 2100 || mo < 1 || mo > 12 || d < 1 || d > 31 ||
		h > 23 || mi > 59 || s > 59 {
		return false
	}
	return TimestampFromTime(ts.Time()) == ts
}

func checkAgainstReference(t *testing.T, ts Timestamp) {
	t.Helper()
	if got, want := ts.IntervalIndex(), refIntervalIndex(ts); got != want {
		t.Fatalf("%d.IntervalIndex() = %d, time.Time gives %d", ts, got, want)
	}
	if got, want := ts.Valid(), refValid(ts); got != want {
		t.Fatalf("%d.Valid() = %v, time.Time gives %v", ts, got, want)
	}
}

// TestCalendarMatchesTimeEveryInterval walks every capture interval from
// 2000-01-01 to 2101-01-01 (most of them before Epoch, so negative), and
// checks IntervalStart, IntervalIndex and Valid against time.Time at each
// interval's first and last second.
func TestCalendarMatchesTimeEveryInterval(t *testing.T) {
	lo := refIntervalIndex(20000101000000)
	hi := refIntervalIndex(21010101000000)
	if lo >= 0 || hi <= lo {
		t.Fatalf("span %d..%d", lo, hi)
	}
	for idx := lo; idx <= hi; idx++ {
		ts := IntervalStart(idx)
		if want := refIntervalStart(idx); ts != want {
			t.Fatalf("IntervalStart(%d) = %d, time.Time gives %d", idx, ts, want)
		}
		if got := ts.IntervalIndex(); got != idx {
			t.Fatalf("%d.IntervalIndex() = %d, want %d", ts, got, idx)
		}
		if got, want := ts.Valid(), refValid(ts); got != want {
			t.Fatalf("%d.Valid() = %v, time.Time gives %v", ts, got, want)
		}
		last := ts + 1400 + 59 // hh:mm+14:59 stays inside the interval
		checkAgainstReference(t, last)
		if got := last.IntervalIndex(); got != idx {
			t.Fatalf("%d.IntervalIndex() = %d, want %d", last, got, idx)
		}
	}
}

func TestCalendarLeapDays(t *testing.T) {
	for _, c := range []struct {
		ts    Timestamp
		valid bool
	}{
		{20000229120000, true},  // divisible by 400: leap
		{20160229000000, true},  // divisible by 4: leap
		{21000229000000, false}, // divisible by 100 only: no leap day
		{20150229000000, false},
		{20190228235959, true},
		{20000301000000, true},
	} {
		if got := c.ts.Valid(); got != c.valid {
			t.Fatalf("%d.Valid() = %v, want %v", c.ts, got, c.valid)
		}
		checkAgainstReference(t, c.ts)
	}
	// 2100-02-29 normalizes to 1 March, as time.Date does.
	if a, b := Timestamp(21000229000000).IntervalIndex(), Timestamp(21000301000000).IntervalIndex(); a != b {
		t.Fatalf("2100-02-29 is interval %d, 2100-03-01 is %d", a, b)
	}
	// The leap day is a whole day of intervals.
	if d := Timestamp(20160301000000).IntervalIndex() - Timestamp(20160229000000).IntervalIndex(); d != IntervalsPerDay {
		t.Fatalf("2016-02-29 spans %d intervals", d)
	}
}

// TestCalendarNormalizesLikeTimeDate feeds components time.Date has to
// normalize: they must land where time.Date puts them, and be invalid.
func TestCalendarNormalizesLikeTimeDate(t *testing.T) {
	for _, ts := range []Timestamp{
		20151301000000, // month 13: January of the next year
		20150001000000, // month 0: December of the year before
		20150431000000, // 31 April: 1 May
		20150218240000, // hour 24: next midnight
		20150218006000, // minute 60
		20150218000060, // second 60
		20150200000000, // day 0: last day of January
		20159999999999,
		0, -1, -20150218000000, 101000000,
	} {
		checkAgainstReference(t, ts)
		if ts.Valid() {
			t.Fatalf("%d should be invalid", ts)
		}
	}
	if a, b := Timestamp(20150431000000).IntervalIndex(), Timestamp(20150501000000).IntervalIndex(); a != b {
		t.Fatalf("31 April is interval %d, 1 May is %d", a, b)
	}
}

func TestCalendarMatchesTimeRandom(t *testing.T) {
	// Arbitrary components, in and out of range, over a wide span of
	// years; and arbitrary int64 values.
	f := func(y uint16, mo, d, h, mi, s uint8, raw int64) bool {
		ts := MakeTimestamp(int(y), int(mo%100), int(d%100), int(h%100), int(mi%100), int(s%100))
		return ts.IntervalIndex() == refIntervalIndex(ts) && ts.Valid() == refValid(ts) &&
			Timestamp(raw).IntervalIndex() == refIntervalIndex(Timestamp(raw)) &&
			Timestamp(raw).Valid() == refValid(Timestamp(raw))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

// TestIntervalStartFarIndexes covers indexes far from the archive: back
// to year 1 and before it, and forward by millennia.
func TestIntervalStartFarIndexes(t *testing.T) {
	year1 := Timestamp(10101000000).IntervalIndex() // 0001-01-01 00:00
	for _, idx := range []int64{
		-1, -96, -IntervalsPerYear, -20 * IntervalsPerYear, -700000,
		year1, year1 + 1, year1 - 1, year1 - 96*366, 2 * year1, -2 * year1, 1e12, -1e12,
	} {
		if got, want := IntervalStart(idx), refIntervalStart(idx); got != want {
			t.Fatalf("IntervalStart(%d) = %d, time.Time gives %d", idx, got, want)
		}
	}
	if got := IntervalStart(year1); got != 10101000000 {
		t.Fatalf("IntervalStart(%d) = %d, want year 1", year1, got)
	}
	f := func(raw int64) bool {
		idx := raw % 1e12
		return IntervalStart(idx) == refIntervalStart(idx)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}
