package gdelt

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// GKGColumns lists the 27 column names of a GDELT 2.1 Global Knowledge
// Graph export file, in file order. The GKG records, per article, the
// themes, entities, tone and other "real world knowledge" Section III
// describes GDELT extracting alongside the Events/Mentions tables.
var GKGColumns = []string{
	"GKGRECORDID", "DATE", "SourceCollectionIdentifier", "SourceCommonName",
	"DocumentIdentifier", "Counts", "V2Counts", "Themes", "V2Themes",
	"Locations", "V2Locations", "Persons", "V2Persons", "Organizations",
	"V2Organizations", "V2Tone", "Dates", "GCAM", "SharingImage",
	"RelatedImages", "SocialImageEmbeds", "SocialVideoEmbeds", "Quotations",
	"AllNames", "Amounts", "TranslationInfo", "Extras",
}

// Column indexes into a raw GKG row.
const (
	GkgColRecordID    = 0
	GkgColDate        = 1
	GkgColSourceName  = 3
	GkgColDocID       = 4
	GkgColThemes      = 7
	GkgColPersons     = 11
	GkgColOrgs        = 13
	GkgColTone        = 15
	GkgColTranslation = 25
)

// GKGRecord is the parsed, analysis-relevant projection of a GKG row.
type GKGRecord struct {
	// RecordID is "<date>-<seq>", unique per record.
	RecordID string
	// Date is the capture timestamp.
	Date Timestamp
	// SourceName is the publishing domain.
	SourceName string
	// DocID is the article URL. Only the raw writer fills it: no store
	// reads it, so ParseGKGFields leaves it empty.
	DocID string
	// Themes are the extracted theme annotations.
	Themes []string
	// Persons and Organizations are the extracted entity annotations.
	// Only the raw writer fills them: no store keeps them, so
	// ParseGKGFields leaves them nil without splitting their columns.
	Persons       []string
	Organizations []string
	// Tone is the V2Tone leading value (average document tone).
	Tone float32
	// Translated reports whether the article was machine-translated
	// (non-empty TranslationInfo; Section III: 65 languages translated in
	// real time).
	Translated bool
}

// splitSemis splits a semicolon-separated annotation list, dropping empties.
func splitSemis(b []byte) []string {
	if len(b) == 0 {
		return nil
	}
	parts := strings.Split(string(b), ";")
	out := parts[:0]
	for _, p := range parts {
		if p != "" {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// ParseGKGFields decodes a GKG row whose fields have been split on tabs:
// the fields a store reads. DocID, Persons and Organizations stay empty —
// none of them can make a row bad, and no store keeps them.
func ParseGKGFields(fields [][]byte) (GKGRecord, error) {
	var r GKGRecord
	if len(fields) != len(GKGColumns) {
		return r, fmt.Errorf("gdelt: gkg row has %d columns, want %d", len(fields), len(GKGColumns))
	}
	r.RecordID = string(fields[GkgColRecordID])
	if r.RecordID == "" {
		return r, fmt.Errorf("gdelt: gkg row has empty record id")
	}
	date, err := parseInt64Field(fields[GkgColDate])
	if err != nil {
		return r, fmt.Errorf("gdelt: gkg DATE: %w", err)
	}
	r.Date = Timestamp(date)
	r.SourceName = string(fields[GkgColSourceName])
	r.Themes = splitSemis(fields[GkgColThemes])
	// V2Tone is "tone,positive,negative,polarity,...": take the head.
	tone := fields[GkgColTone]
	if i := bytes.IndexByte(tone, ','); i >= 0 {
		tone = tone[:i]
	}
	if r.Tone, err = parseFloat32Field(tone); err != nil {
		return r, fmt.Errorf("gdelt: gkg V2Tone: %w", err)
	}
	r.Translated = len(fields[GkgColTranslation]) > 0
	return r, nil
}

// AppendGKGRow appends the 27-column tab-separated representation of r to
// dst (without a trailing newline).
func AppendGKGRow(dst []byte, r *GKGRecord) []byte {
	tab := func() { dst = append(dst, '\t') }
	dst = append(dst, r.RecordID...)
	tab()
	dst = r.Date.Append(dst)
	tab()
	dst = append(dst, '1') // SourceCollectionIdentifier: web
	tab()
	dst = append(dst, r.SourceName...)
	tab()
	dst = append(dst, r.DocID...)
	tab() // Counts
	tab() // V2Counts
	tab()
	dst = appendSemis(dst, r.Themes)
	tab() // V2Themes
	tab() // Locations
	tab() // V2Locations
	tab()
	dst = appendSemis(dst, r.Persons)
	tab() // V2Persons
	tab()
	dst = appendSemis(dst, r.Organizations)
	tab() // V2Organizations
	tab()
	dst = strconv.AppendFloat(dst, float64(r.Tone), 'f', 2, 32) // fmt's %.2f of the float32 tone
	dst = append(dst, ",0,0,0"...)
	for c := GkgColTone + 1; c < GkgColTranslation; c++ {
		tab()
	}
	tab()
	if r.Translated {
		dst = append(dst, "srclc:xx;eng:GT"...)
	}
	tab() // Extras
	return dst
}

func appendSemis(dst []byte, items []string) []byte {
	for i, it := range items {
		if i > 0 {
			dst = append(dst, ';')
		}
		dst = append(dst, it...)
	}
	return dst
}
