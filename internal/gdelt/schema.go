// Package gdelt implements the GDELT 2.0 data model: the Events and Mentions
// table schemas, the tab-separated raw file codec, the 15-minute capture
// interval timestamp arithmetic, the master file list format, country code
// tables, and record validation with the defect taxonomy of Table II.
//
// GDELT publishes two files per 15-minute interval: an Events file (one row
// per newly observed or updated event, 61 tab-separated columns) and a
// Mentions file (one row per article mentioning an event, 16 columns). This
// package is faithful to those column layouts so the conversion pipeline
// exercises the same parsing work the paper's preprocessing tool performs.
package gdelt

// EventColumns lists the 61 column names of a GDELT 2.0 Events export file,
// in file order.
var EventColumns = []string{
	"GlobalEventID", "Day", "MonthYear", "Year", "FractionDate",
	"Actor1Code", "Actor1Name", "Actor1CountryCode", "Actor1KnownGroupCode",
	"Actor1EthnicCode", "Actor1Religion1Code", "Actor1Religion2Code",
	"Actor1Type1Code", "Actor1Type2Code", "Actor1Type3Code",
	"Actor2Code", "Actor2Name", "Actor2CountryCode", "Actor2KnownGroupCode",
	"Actor2EthnicCode", "Actor2Religion1Code", "Actor2Religion2Code",
	"Actor2Type1Code", "Actor2Type2Code", "Actor2Type3Code",
	"IsRootEvent", "EventCode", "EventBaseCode", "EventRootCode",
	"QuadClass", "GoldsteinScale", "NumMentions", "NumSources", "NumArticles",
	"AvgTone",
	"Actor1Geo_Type", "Actor1Geo_Fullname", "Actor1Geo_CountryCode",
	"Actor1Geo_ADM1Code", "Actor1Geo_ADM2Code", "Actor1Geo_Lat",
	"Actor1Geo_Long", "Actor1Geo_FeatureID",
	"Actor2Geo_Type", "Actor2Geo_Fullname", "Actor2Geo_CountryCode",
	"Actor2Geo_ADM1Code", "Actor2Geo_ADM2Code", "Actor2Geo_Lat",
	"Actor2Geo_Long", "Actor2Geo_FeatureID",
	"ActionGeo_Type", "ActionGeo_Fullname", "ActionGeo_CountryCode",
	"ActionGeo_ADM1Code", "ActionGeo_ADM2Code", "ActionGeo_Lat",
	"ActionGeo_Long", "ActionGeo_FeatureID",
	"DateAdded", "SourceURL",
}

// MentionColumns lists the 16 column names of a GDELT 2.0 Mentions export
// file, in file order.
var MentionColumns = []string{
	"GlobalEventID", "EventTimeDate", "MentionTimeDate", "MentionType",
	"MentionSourceName", "MentionIdentifier", "SentenceID",
	"Actor1CharOffset", "Actor2CharOffset", "ActionCharOffset", "InRawText",
	"Confidence", "MentionDocLen", "MentionDocTone",
	"MentionDocTranslationInfo", "Extras",
}

// Column indexes into a raw Events row. Only the fields the analysis system
// consumes are named; the remaining columns are carried opaquely.
const (
	EvColGlobalEventID = 0
	EvColDay           = 1
	EvColMonthYear     = 2
	EvColYear          = 3
	EvColFractionDate  = 4
	EvColIsRootEvent   = 25
	EvColEventCode     = 26
	EvColQuadClass     = 29
	EvColGoldstein     = 30
	EvColNumMentions   = 31
	EvColNumSources    = 32
	EvColNumArticles   = 33
	EvColAvgTone       = 34
	EvColActionGeoType = 51
	EvColActionGeoName = 52
	EvColActionCountry = 53
	EvColActionLat     = 56
	EvColActionLong    = 57
	EvColDateAdded     = 59
	EvColSourceURL     = 60
)

// Column indexes into a raw Mentions row.
const (
	MnColGlobalEventID   = 0
	MnColEventTimeDate   = 1
	MnColMentionTimeDate = 2
	MnColMentionType     = 3
	MnColSourceName      = 4
	MnColIdentifier      = 5
	MnColSentenceID      = 6
	MnColConfidence      = 11
	MnColDocLen          = 12
	MnColDocTone         = 13
)

// MentionTypeWeb is the MentionType of a scraped web news article; the
// analyses in the paper consider only these.
const MentionTypeWeb = 1

// Event is the parsed, analysis-relevant projection of an Events row.
type Event struct {
	GlobalEventID int64
	Day           int32 // YYYYMMDD of the event
	EventCode     int32 // CAMEO action code
	QuadClass     int8
	IsRootEvent   bool
	Goldstein     float32
	NumMentions   int32
	NumSources    int32
	NumArticles   int32
	AvgTone       float32
	ActionCountry string // FIPS 10-4 two-letter country code, "" if untagged
	ActionLat     float32
	ActionLong    float32
	DateAdded     Timestamp // capture time, YYYYMMDDHHMMSS
	SourceURL     string    // URL of the first article reporting the event
}

// Mention is the parsed, analysis-relevant projection of a Mentions row.
type Mention struct {
	GlobalEventID int64
	EventTime     Timestamp // when the event happened (capture-interval resolution)
	MentionTime   Timestamp // when the article was scraped
	MentionType   int8
	SourceName    string // news source domain, e.g. "example.co.uk"
	Identifier    string // article URL; only the raw writer fills it, a parsed row leaves it empty
	SentenceID    int16
	Confidence    int8 // 0..100
	DocLen        int32
	DocTone       float32
}

// Delay returns the publishing delay of the mention in 15-minute capture
// intervals: the number of intervals between the event time and the mention
// time. The paper's convention makes the minimum observable delay 1 (an
// article captured in the same interval as its event still took one interval
// to surface), and negative raw differences (defect class "event date in the
// future") clamp to 0 so they remain visible to validation.
func (m *Mention) Delay() int64 {
	d := m.MentionTime.IntervalIndex() - m.EventTime.IntervalIndex()
	if d < 0 {
		return 0
	}
	return d + 1
}
