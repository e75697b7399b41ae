// Package baseline implements the comparison systems the paper argues
// against: a generic row store that keeps mentions as parsed record structs
// and re-derives everything per query (string country attribution per row,
// no dictionary or postings), and a raw-file re-scan path that re-parses the
// TSV archive for every query — the access pattern of a BigQuery/Hadoop
// style system that "processes more than one TB for a simple test query".
// Both run single-threaded by design.
package baseline

import (
	"fmt"
	"os"
	"path/filepath"

	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/matrix"
	"gdeltmine/internal/store"
)

// RowStore is a generic record-at-a-time store: one parsed struct per
// mention, with the event country looked up through a map per row.
type RowStore struct {
	Mentions []gdelt.Mention
	// eventCountry maps GlobalEventID to the FIPS country code string.
	eventCountry map[int64]string
	// start and quarters describe the archive span, for the calendar-quarter
	// reference computations in reference.go.
	start    gdelt.Timestamp
	quarters int
}

// NewRowStore materializes a row store from the columnar DB, restoring the
// denormalized string-heavy representation a generic system would hold.
func NewRowStore(db *store.DB) *RowStore {
	rs := &RowStore{
		Mentions:     make([]gdelt.Mention, 0, db.Mentions.Len()),
		eventCountry: make(map[int64]string, db.Events.Len()),
		start:        db.Meta.Start,
		quarters:     db.NumQuarters(),
	}
	for i := 0; i < db.Events.Len(); i++ {
		if c := db.Events.Country[i]; c >= 0 {
			rs.eventCountry[db.Events.ID[i]] = gdelt.Countries[c].FIPS
		}
	}
	base := db.Meta.Start.IntervalIndex()
	for r := 0; r < db.Mentions.Len(); r++ {
		ev := db.Mentions.EventRow[r]
		rs.Mentions = append(rs.Mentions, gdelt.Mention{
			GlobalEventID: db.Events.ID[ev],
			EventTime:     gdelt.IntervalStart(base + int64(db.Events.Interval[ev])),
			MentionTime:   gdelt.IntervalStart(base + int64(db.Mentions.Interval[r])),
			MentionType:   gdelt.MentionTypeWeb,
			SourceName:    db.Sources.Name(db.Mentions.Source[r]),
			DocLen:        db.Mentions.DocLen[r],
			DocTone:       db.Mentions.Tone[r],
			Confidence:    db.Mentions.Confidence[r],
		})
	}
	return rs
}

// CrossCountry runs the Table VI aggregated query the generic way: one pass
// over record structs, re-attributing the source country from the domain
// string and the event country through the map, single-threaded.
func (rs *RowStore) CrossCountry() *matrix.Int64 {
	nc := len(gdelt.Countries)
	out := matrix.NewInt64(nc, nc)
	for i := range rs.Mentions {
		m := &rs.Mentions[i]
		fips, ok := rs.eventCountry[m.GlobalEventID]
		if !ok {
			continue
		}
		r := gdelt.CountryIndex(fips)
		c := gdelt.CountryFromDomain(m.SourceName)
		if r >= 0 && c >= 0 {
			out.Inc(r, c)
		}
	}
	return out
}

// CountSlowArticles counts articles with a delay above the threshold (in
// intervals), recomputing each delay from the record timestamps.
func (rs *RowStore) CountSlowArticles(threshold int64) int64 {
	var n int64
	for i := range rs.Mentions {
		if rs.Mentions[i].Delay() > threshold {
			n++
		}
	}
	return n
}

// RawRescan answers queries by re-reading and re-parsing the raw TSV
// archive on every call.
type RawRescan struct {
	dir     string
	entries []gdelt.MasterEntry
}

// NewRawRescan opens a raw dataset directory for re-scan queries.
func NewRawRescan(dir string) (*RawRescan, error) {
	f, err := os.Open(filepath.Join(dir, gen.MasterFileName))
	if err != nil {
		return nil, fmt.Errorf("baseline: opening master list: %w", err)
	}
	defer f.Close()
	ml, err := gdelt.ReadMasterList(f)
	if err != nil {
		return nil, err
	}
	return &RawRescan{dir: dir, entries: ml.Entries}, nil
}

// CrossCountry runs the Table VI query by re-parsing every chunk file:
// first the events files (to learn each event's country), then the mentions
// files. This is what every repeated investigation costs without the
// one-time binary conversion.
func (rr *RawRescan) CrossCountry() (*matrix.Int64, error) {
	eventCountry := make(map[int64]int32)
	nc := len(gdelt.Countries)
	out := matrix.NewInt64(nc, nc)
	sink := gdelt.ChunkSink{
		Event: func(ev gdelt.Event) {
			if c := gdelt.CountryIndex(ev.ActionCountry); c >= 0 {
				eventCountry[ev.GlobalEventID] = int32(c)
			}
		},
		Mention: func(mn gdelt.Mention) {
			r, ok := eventCountry[mn.GlobalEventID]
			if !ok {
				return
			}
			if c := gdelt.CountryFromDomain(mn.SourceName); c >= 0 {
				out.Inc(int(r), c)
			}
		},
	}
	for _, kind := range []string{"export", "mentions"} {
		for _, e := range rr.entries {
			if e.Kind() != kind {
				continue
			}
			data, err := os.ReadFile(filepath.Join(rr.dir, e.Path))
			if err != nil {
				continue // missing archives are tolerated, as in conversion
			}
			_ = gdelt.ParseChunk(kind, data, sink) // kind is known: ParseChunk cannot fail
		}
	}
	return out, nil
}
