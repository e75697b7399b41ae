// Package baseline implements the comparison systems the paper argues
// against: a generic row store that keeps mentions as parsed record structs
// and re-derives everything per query (string country attribution per row,
// no dictionary or postings), and a raw-file re-scan path that re-parses the
// TSV archive for every query — the access pattern of a BigQuery/Hadoop
// style system that "processes more than one TB for a simple test query".
// The row store runs single-threaded by design; the re-scan reads and
// parses files as many at a time as gdeltconvert does, so what it measures
// is the re-parse the binary format saves, not a missing worker.
package baseline

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/matrix"
	"gdeltmine/internal/parallel"
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
//
// Files are read and parsed on parallel.Ordered, each worker reducing a
// chunk to the pairs the query needs — event and action country, or event
// and source country. One consumer takes them in that file order, filling
// the event map before any mention is counted, so the matrix is the same
// at every width.
func (rr *RawRescan) CrossCountry() (*matrix.Int64, error) {
	var files []gdelt.MasterEntry
	for _, kind := range []string{"export", "mentions"} {
		for _, e := range rr.entries {
			if e.Kind() == kind {
				files = append(files, e)
			}
		}
	}
	// countryPair is an event id and a country index: the event's action
	// country in an events file, a mentioning source's in a mentions file.
	type countryPair struct {
		event   int64
		country int32
	}
	read := func(_ context.Context, i int) ([]countryPair, error) {
		e := files[i]
		data, err := os.ReadFile(filepath.Join(rr.dir, e.Path))
		if err != nil {
			return nil, nil // missing archives are tolerated, as in conversion
		}
		var pairs []countryPair
		_ = gdelt.ParseChunk(e.Kind(), data, gdelt.ChunkSink{ // kind is known: ParseChunk cannot fail
			Event: func(ev gdelt.Event) {
				if c := gdelt.CountryIndex(ev.ActionCountry); c >= 0 {
					pairs = append(pairs, countryPair{ev.GlobalEventID, int32(c)})
				}
			},
			Mention: func(mn gdelt.Mention) {
				if c := gdelt.CountryFromDomain(mn.SourceName); c >= 0 {
					pairs = append(pairs, countryPair{mn.GlobalEventID, int32(c)})
				}
			},
		})
		return pairs, nil
	}
	eventCountry := make(map[int64]int32)
	nc := len(gdelt.Countries)
	out := matrix.NewInt64(nc, nc)
	err := parallel.Ordered(context.TODO(), len(files), read, func(i int, pairs []countryPair) error {
		if files[i].Kind() == "export" {
			for _, p := range pairs {
				eventCountry[p.event] = p.country
			}
			return nil
		}
		for _, p := range pairs {
			if r, ok := eventCountry[p.event]; ok {
				out.Inc(int(r), int(p.country))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
