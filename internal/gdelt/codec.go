package gdelt

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
)

// SplitTabs splits a raw row on tab characters, appending the fields to dst
// (which is reset first) so callers can reuse one backing slice across rows.
// The returned sub-slices alias line.
func SplitTabs(line []byte, dst [][]byte) [][]byte {
	dst = dst[:0]
	start := 0
	for i := 0; i < len(line); i++ {
		if line[i] == '\t' {
			dst = append(dst, line[start:i])
			start = i + 1
		}
	}
	return append(dst, line[start:])
}

// ChunkSink receives what ParseChunk reads from a chunk: the row function
// of the chunk's kind gets each row that parses, and BadRow, when set, the
// error of each row that does not. Rows arrive by value, so a row a sink
// does not keep never reaches the heap.
type ChunkSink struct {
	Event   func(Event)
	Mention func(Mention)
	GKG     func(GKGRecord)
	BadRow  func(error)
}

// ParseChunk parses the rows of one chunk file of the given kind —
// "export", "mentions" or "gkg", as MasterEntry.Kind names them — and hands
// each to sink, in file order. Rows are the newline-separated lines of
// data; empty lines are skipped and the last line needs no newline. A row
// that does not parse goes to sink.BadRow with the Parse*Fields error and
// the walk goes on. It is the one walk over chunk bytes: conversion, the
// stream's ticks and the raw re-scan baseline all read chunks through it.
// Rows carry what a store reads: a mention's Identifier and a GKG record's
// DocID, Persons and Organizations stay empty (only the raw writer fills
// them), while every field that can make a row bad is still parsed and
// checked, so the bad-row texts are those of a full parse.
//
// The only error is an unknown kind, and it is raised at the chunk's first
// row: a chunk with no rows holds nothing that could be lost.
func ParseChunk(kind string, data []byte, sink ChunkSink) error {
	var fields [][]byte
	for len(data) > 0 {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		if len(line) == 0 {
			continue
		}
		fields = SplitTabs(line, fields)
		var err error
		switch kind {
		case "export":
			var ev Event
			if ev, err = ParseEventFields(fields); err == nil {
				sink.Event(ev)
			}
		case "mentions":
			var mn Mention
			if mn, err = ParseMentionFields(fields); err == nil {
				sink.Mention(mn)
			}
		case "gkg":
			var rec GKGRecord
			if rec, err = ParseGKGFields(fields); err == nil {
				sink.GKG(rec)
			}
		default:
			return fmt.Errorf("unknown chunk kind %q", kind)
		}
		if err != nil && sink.BadRow != nil {
			sink.BadRow(err)
		}
	}
	return nil
}

func parseInt64Field(b []byte) (int64, error) {
	if len(b) == 0 {
		return 0, nil
	}
	neg := false
	i := 0
	if b[0] == '-' {
		neg = true
		i = 1
		if len(b) == 1 {
			return 0, fmt.Errorf("gdelt: bare minus sign")
		}
	}
	var v int64
	for ; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("gdelt: invalid integer %q", b)
		}
		v = v*10 + int64(c-'0')
	}
	if neg {
		v = -v
	}
	return v, nil
}

func parseFloat32Field(b []byte) (float32, error) {
	if len(b) == 0 {
		return 0, nil
	}
	f, err := strconv.ParseFloat(string(b), 32)
	if err != nil {
		return 0, fmt.Errorf("gdelt: invalid float %q", b)
	}
	return float32(f), nil
}

// ParseEventFields decodes the analysis-relevant projection of an Events row
// whose fields have already been split on tabs. It requires the full
// 61-column layout.
func ParseEventFields(fields [][]byte) (Event, error) {
	var ev Event
	if len(fields) != len(EventColumns) {
		return ev, fmt.Errorf("gdelt: event row has %d columns, want %d", len(fields), len(EventColumns))
	}
	var err error
	if ev.GlobalEventID, err = parseInt64Field(fields[EvColGlobalEventID]); err != nil {
		return ev, fmt.Errorf("gdelt: GlobalEventID: %w", err)
	}
	day, err := parseInt64Field(fields[EvColDay])
	if err != nil {
		return ev, fmt.Errorf("gdelt: Day: %w", err)
	}
	ev.Day = int32(day)
	code, err := parseInt64Field(fields[EvColEventCode])
	if err != nil {
		return ev, fmt.Errorf("gdelt: EventCode: %w", err)
	}
	ev.EventCode = int32(code)
	quad, err := parseInt64Field(fields[EvColQuadClass])
	if err != nil {
		return ev, fmt.Errorf("gdelt: QuadClass: %w", err)
	}
	ev.QuadClass = int8(quad)
	root, err := parseInt64Field(fields[EvColIsRootEvent])
	if err != nil {
		return ev, fmt.Errorf("gdelt: IsRootEvent: %w", err)
	}
	ev.IsRootEvent = root != 0
	if ev.Goldstein, err = parseFloat32Field(fields[EvColGoldstein]); err != nil {
		return ev, fmt.Errorf("gdelt: GoldsteinScale: %w", err)
	}
	nm, err := parseInt64Field(fields[EvColNumMentions])
	if err != nil {
		return ev, fmt.Errorf("gdelt: NumMentions: %w", err)
	}
	ev.NumMentions = int32(nm)
	ns, err := parseInt64Field(fields[EvColNumSources])
	if err != nil {
		return ev, fmt.Errorf("gdelt: NumSources: %w", err)
	}
	ev.NumSources = int32(ns)
	na, err := parseInt64Field(fields[EvColNumArticles])
	if err != nil {
		return ev, fmt.Errorf("gdelt: NumArticles: %w", err)
	}
	ev.NumArticles = int32(na)
	if ev.AvgTone, err = parseFloat32Field(fields[EvColAvgTone]); err != nil {
		return ev, fmt.Errorf("gdelt: AvgTone: %w", err)
	}
	ev.ActionCountry = string(fields[EvColActionCountry])
	if ev.ActionLat, err = parseFloat32Field(fields[EvColActionLat]); err != nil {
		return ev, fmt.Errorf("gdelt: ActionGeo_Lat: %w", err)
	}
	if ev.ActionLong, err = parseFloat32Field(fields[EvColActionLong]); err != nil {
		return ev, fmt.Errorf("gdelt: ActionGeo_Long: %w", err)
	}
	added, err := parseInt64Field(fields[EvColDateAdded])
	if err != nil {
		return ev, fmt.Errorf("gdelt: DateAdded: %w", err)
	}
	ev.DateAdded = Timestamp(added)
	ev.SourceURL = string(fields[EvColSourceURL])
	return ev, nil
}

// ParseMentionFields decodes the analysis-relevant projection of a Mentions
// row whose fields have already been split on tabs. Identifier stays
// empty: no store reads the article URL, and it cannot make a row bad.
func ParseMentionFields(fields [][]byte) (Mention, error) {
	var mn Mention
	if len(fields) != len(MentionColumns) {
		return mn, fmt.Errorf("gdelt: mention row has %d columns, want %d", len(fields), len(MentionColumns))
	}
	var err error
	if mn.GlobalEventID, err = parseInt64Field(fields[MnColGlobalEventID]); err != nil {
		return mn, fmt.Errorf("gdelt: GlobalEventID: %w", err)
	}
	et, err := parseInt64Field(fields[MnColEventTimeDate])
	if err != nil {
		return mn, fmt.Errorf("gdelt: EventTimeDate: %w", err)
	}
	mn.EventTime = Timestamp(et)
	mt, err := parseInt64Field(fields[MnColMentionTimeDate])
	if err != nil {
		return mn, fmt.Errorf("gdelt: MentionTimeDate: %w", err)
	}
	mn.MentionTime = Timestamp(mt)
	typ, err := parseInt64Field(fields[MnColMentionType])
	if err != nil {
		return mn, fmt.Errorf("gdelt: MentionType: %w", err)
	}
	mn.MentionType = int8(typ)
	mn.SourceName = string(fields[MnColSourceName])
	sid, err := parseInt64Field(fields[MnColSentenceID])
	if err != nil {
		return mn, fmt.Errorf("gdelt: SentenceID: %w", err)
	}
	mn.SentenceID = int16(sid)
	conf, err := parseInt64Field(fields[MnColConfidence])
	if err != nil {
		return mn, fmt.Errorf("gdelt: Confidence: %w", err)
	}
	mn.Confidence = int8(conf)
	dl, err := parseInt64Field(fields[MnColDocLen])
	if err != nil {
		return mn, fmt.Errorf("gdelt: MentionDocLen: %w", err)
	}
	mn.DocLen = int32(dl)
	if mn.DocTone, err = parseFloat32Field(fields[MnColDocTone]); err != nil {
		return mn, fmt.Errorf("gdelt: MentionDocTone: %w", err)
	}
	return mn, nil
}

// AppendEventRow appends the full 61-column tab-separated representation of
// ev to dst (without a trailing newline) and returns the extended slice.
// Columns the projection does not carry are written empty, as real GDELT
// exports frequently leave them.
func AppendEventRow(dst []byte, ev *Event) []byte {
	tab := func() { dst = append(dst, '\t') }
	dst = strconv.AppendInt(dst, ev.GlobalEventID, 10)
	tab()
	dst = strconv.AppendInt(dst, int64(ev.Day), 10)
	tab()
	dst = strconv.AppendInt(dst, int64(ev.Day/100), 10) // MonthYear
	tab()
	dst = strconv.AppendInt(dst, int64(ev.Day/10000), 10) // Year
	tab()
	dst = strconv.AppendFloat(dst, float64(ev.Day/10000), 'f', 4, 32) // FractionDate (approx)
	for c := EvColFractionDate + 1; c < EvColIsRootEvent; c++ {
		tab() // actor columns left empty
	}
	tab()
	if ev.IsRootEvent {
		dst = append(dst, '1')
	} else {
		dst = append(dst, '0')
	}
	tab()
	dst = strconv.AppendInt(dst, int64(ev.EventCode), 10)
	tab()
	dst = strconv.AppendInt(dst, int64(ev.EventCode/10), 10) // EventBaseCode
	tab()
	dst = strconv.AppendInt(dst, int64(ev.EventCode/100), 10) // EventRootCode
	tab()
	dst = strconv.AppendInt(dst, int64(ev.QuadClass), 10)
	tab()
	dst = strconv.AppendFloat(dst, float64(ev.Goldstein), 'f', 1, 32)
	tab()
	dst = strconv.AppendInt(dst, int64(ev.NumMentions), 10)
	tab()
	dst = strconv.AppendInt(dst, int64(ev.NumSources), 10)
	tab()
	dst = strconv.AppendInt(dst, int64(ev.NumArticles), 10)
	tab()
	dst = strconv.AppendFloat(dst, float64(ev.AvgTone), 'f', 2, 32)
	for c := EvColAvgTone + 1; c < EvColActionGeoType; c++ {
		tab() // actor geo columns left empty
	}
	tab()
	if ev.ActionCountry != "" {
		dst = append(dst, '1') // ActionGeo_Type: country-level match
	} else {
		dst = append(dst, '0')
	}
	tab() // ActionGeo_Fullname empty
	tab()
	dst = append(dst, ev.ActionCountry...)
	tab() // ADM1
	tab() // ADM2
	tab()
	if ev.ActionCountry != "" {
		dst = strconv.AppendFloat(dst, float64(ev.ActionLat), 'f', 4, 32)
	}
	tab()
	if ev.ActionCountry != "" {
		dst = strconv.AppendFloat(dst, float64(ev.ActionLong), 'f', 4, 32)
	}
	tab() // FeatureID
	tab()
	dst = strconv.AppendInt(dst, int64(ev.DateAdded), 10)
	tab()
	dst = append(dst, ev.SourceURL...)
	return dst
}

// WireTone is a document tone as a written mention row carries it: tone at
// the two decimals AppendMentionRow writes, as ParseMentionFields reads
// them back. A row built in memory with it matches the row read from disk.
//
// It takes no text round trip. float64(tone)*100 is exact (a float32
// significand times 100 fits in 31 bits), and RoundToEven breaks a tie as
// strconv's 'f' formatting does, so k is the written hundredths. Dividing
// in float64 and narrowing to float32 then gives ParseFloat's float32 of
// "k/100": below 40,000 in magnitude that value is dyadic or its binary
// expansion repeats with a period of at most 20 bits where a float32
// midpoint would need 28 equal bits, so the double rounding cannot
// differ. Every float32 below 65,536 in magnitude was checked against the
// text round trip.
func WireTone(tone float32) float32 {
	return float32(math.RoundToEven(float64(tone)*100) / 100)
}

// AppendMentionRow appends the 16-column tab-separated representation of mn
// to dst (without a trailing newline) and returns the extended slice.
func AppendMentionRow(dst []byte, mn *Mention) []byte {
	tab := func() { dst = append(dst, '\t') }
	dst = strconv.AppendInt(dst, mn.GlobalEventID, 10)
	tab()
	dst = strconv.AppendInt(dst, int64(mn.EventTime), 10)
	tab()
	dst = strconv.AppendInt(dst, int64(mn.MentionTime), 10)
	tab()
	dst = strconv.AppendInt(dst, int64(mn.MentionType), 10)
	tab()
	dst = append(dst, mn.SourceName...)
	tab()
	dst = append(dst, mn.Identifier...)
	tab()
	dst = strconv.AppendInt(dst, int64(mn.SentenceID), 10)
	tab() // Actor1CharOffset
	tab() // Actor2CharOffset
	tab() // ActionCharOffset
	tab()
	dst = append(dst, '1') // InRawText
	tab()
	dst = strconv.AppendInt(dst, int64(mn.Confidence), 10)
	tab()
	dst = strconv.AppendInt(dst, int64(mn.DocLen), 10)
	tab()
	dst = strconv.AppendFloat(dst, float64(mn.DocTone), 'f', 2, 32)
	tab() // MentionDocTranslationInfo
	tab() // Extras
	return dst
}
