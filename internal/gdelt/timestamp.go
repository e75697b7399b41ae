package gdelt

import (
	"fmt"
	"time"
)

// Timestamp is a GDELT timestamp in YYYYMMDDHHMMSS form, e.g.
// 20150218230000. The zero value means "missing".
type Timestamp int64

// Epoch is the start of the GDELT 2.0 archive: 18 February 2015 00:00 UTC,
// the first day the Event Database was collected in the 2.0 format.
var Epoch = time.Date(2015, 2, 18, 0, 0, 0, 0, time.UTC)

// EpochTimestamp is Epoch as a Timestamp.
const EpochTimestamp Timestamp = 20150218000000

// IntervalSeconds is the length of one GDELT capture interval: 15 minutes.
const IntervalSeconds = 15 * 60

// IntervalsPerDay is the number of capture intervals in 24 hours (96).
const IntervalsPerDay = 24 * 3600 / IntervalSeconds

// IntervalsPerYear is the number of capture intervals in a 365-day year
// (35040); the paper's year-later outliers sit at this scale.
const IntervalsPerYear = 365 * IntervalsPerDay

// MakeTimestamp builds a Timestamp from calendar components.
func MakeTimestamp(year, month, day, hour, min, sec int) Timestamp {
	return Timestamp(int64(year)*1e10 + int64(month)*1e8 + int64(day)*1e6 +
		int64(hour)*1e4 + int64(min)*1e2 + int64(sec))
}

// TimestampFromTime converts a time.Time (taken in UTC) to a Timestamp.
func TimestampFromTime(t time.Time) Timestamp {
	t = t.UTC()
	return MakeTimestamp(t.Year(), int(t.Month()), t.Day(), t.Hour(), t.Minute(), t.Second())
}

// Year returns the calendar year component.
func (ts Timestamp) Year() int { return int(ts / 1e10) }

// Month returns the calendar month component (1..12).
func (ts Timestamp) Month() int { return int(ts / 1e8 % 100) }

// Day returns the day-of-month component.
func (ts Timestamp) Day() int { return int(ts / 1e6 % 100) }

// Hour returns the hour component.
func (ts Timestamp) Hour() int { return int(ts / 1e4 % 100) }

// Minute returns the minute component.
func (ts Timestamp) Minute() int { return int(ts / 1e2 % 100) }

// Second returns the seconds component.
func (ts Timestamp) Second() int { return int(ts % 100) }

// YYYYMMDD returns the date part as an int32 (e.g. 20150218).
func (ts Timestamp) YYYYMMDD() int32 { return int32(ts / 1e6) }

// Time converts the timestamp to a time.Time in UTC. Invalid component
// combinations are normalized the way time.Date normalizes them.
func (ts Timestamp) Time() time.Time {
	return time.Date(ts.Year(), time.Month(ts.Month()), ts.Day(),
		ts.Hour(), ts.Minute(), ts.Second(), 0, time.UTC)
}

// Valid reports whether the timestamp has plausible calendar components
// (years 1979..2100) naming a real instant: the day exists in its month, so
// the timestamp round-trips through time.Date unchanged.
func (ts Timestamp) Valid() bool {
	y := ts.Year()
	return ts > 0 && y >= 1979 && y <= 2100 && ts.canonical()
}

// canonical reports whether the month, day, hour, minute and second name
// a real instant of the timestamp's year, i.e. time.Date would not
// normalize them. Negative timestamps have negative components and fail.
func (ts Timestamp) canonical() bool {
	y, mo, d := ts.Year(), ts.Month(), ts.Day()
	return mo >= 1 && mo <= 12 && d >= 1 && (d <= 28 || d <= daysInMonth(y, mo)) &&
		ts.Hour() <= 23 && ts.Minute() <= 59 && ts.Second() <= 59
}

// The calendar below is integer arithmetic on the proleptic Gregorian
// calendar — the one time.Date uses — so converting between timestamps and
// capture intervals costs a few multiplications instead of two time.Time
// round trips. Only timestamps that are not canonical (month 13, 31 April,
// hour 24, negative values) take the time.Date path in IntervalIndex, so
// they normalize exactly as before.

// epochDays is Epoch's day number (days since 1970-01-01).
var epochDays = daysFromCivil(EpochTimestamp.Year(), EpochTimestamp.Month(), EpochTimestamp.Day())

// daysInMonth returns the length of month mo (1..12) of year y.
func daysInMonth(y, mo int) int {
	if mo == 2 {
		if y%4 == 0 && (y%100 != 0 || y%400 == 0) {
			return 29
		}
		return 28
	}
	return 30 + (mo+mo/8)%2
}

// daysFromCivil returns the day number (days since 1970-01-01) of the
// date y-mo-d, for mo in 1..12 and d in 1..31. It counts in 400-year eras
// of 146097 days, with years starting in March so the leap day ends one.
func daysFromCivil(y, mo, d int) int64 {
	if mo <= 2 {
		y--
	}
	era := y / 400
	if y < 0 && y%400 != 0 {
		era--
	}
	yoe := y - era*400                     // year of era, 0..399
	mp := (mo + 9) % 12                    // month from March, 0..11
	doy := (153*mp+2)/5 + d - 1            // day of the March-based year
	doe := yoe*365 + yoe/4 - yoe/100 + doy // day of era, 0..146096
	return int64(era)*146097 + int64(doe) - 719468
}

// civilFromDays is daysFromCivil's inverse. Within an era every quantity
// is a small non-negative number, so it computes in uint32, where dividing
// by a constant is one multiplication.
func civilFromDays(z int64) (y, mo, d int) {
	z += 719468
	era := z / 146097
	if z < 0 && z%146097 != 0 {
		era--
	}
	doe := uint32(z - era*146097)
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365
	doy := doe - (365*yoe + yoe/4 - yoe/100)
	mp := (5*doy + 2) / 153
	d = int(doy - (153*mp+2)/5 + 1)
	mo = int((mp+2)%12 + 1)
	y = int(yoe) + int(era)*400
	if mo <= 2 {
		y++
	}
	return y, mo, d
}

// IntervalIndex returns the number of whole 15-minute capture intervals
// between Epoch and the timestamp. Timestamps before Epoch yield negative
// indexes.
func (ts Timestamp) IntervalIndex() int64 {
	var sec int64
	if ts.canonical() {
		days := daysFromCivil(ts.Year(), ts.Month(), ts.Day()) - epochDays
		sec = days*86400 + int64(ts.Hour()*3600+ts.Minute()*60+ts.Second())
	} else {
		sec = ts.Time().Unix() - Epoch.Unix()
	}
	if sec >= 0 {
		return sec / IntervalSeconds
	}
	return -((-sec + IntervalSeconds - 1) / IntervalSeconds)
}

// IntervalStart returns the timestamp of the start of capture interval idx.
func IntervalStart(idx int64) Timestamp {
	days := idx / IntervalsPerDay
	if idx%IntervalsPerDay < 0 {
		days--
	}
	sod := int(idx-days*IntervalsPerDay) * IntervalSeconds // second of the day
	y, mo, d := civilFromDays(epochDays + days)
	return MakeTimestamp(y, mo, d, sod/3600, sod/60%60, sod%60)
}

// String renders the timestamp in its canonical 14-digit form.
func (ts Timestamp) String() string { return fmt.Sprintf("%014d", int64(ts)) }

// ParseTimestamp parses a 14-digit YYYYMMDDHHMMSS string. It rejects
// non-digit characters and wrong lengths but does not validate calendar
// plausibility; use Valid for that (the split lets validation count
// malformed vs. implausible defects separately).
func ParseTimestamp(s string) (Timestamp, error) {
	if len(s) != 14 {
		return 0, fmt.Errorf("gdelt: timestamp %q: want 14 digits", s)
	}
	var v int64
	for i := 0; i < 14; i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("gdelt: timestamp %q: non-digit at %d", s, i)
		}
		v = v*10 + int64(c-'0')
	}
	return Timestamp(v), nil
}
