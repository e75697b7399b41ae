package gdelt

import (
	"bytes"
	"fmt"
	"testing"
)

// chunkRows is what a chunk walk hands its sink.
type chunkRows struct {
	events   []Event
	mentions []Mention
	gkg      []GKGRecord
	bad      []string
}

// referenceChunk parses a chunk line by line the way ParseChunk's callers
// did before it existed: split on newlines, skip empty lines, SplitTabs
// and the kind's Parse*Fields on the rest. An unknown kind fails at the
// first non-empty line.
func referenceChunk(kind string, data []byte) (chunkRows, bool) {
	var r chunkRows
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		fields := SplitTabs(line, nil)
		var err error
		switch kind {
		case "export":
			var ev Event
			if ev, err = ParseEventFields(fields); err == nil {
				r.events = append(r.events, ev)
			}
		case "mentions":
			var mn Mention
			if mn, err = ParseMentionFields(fields); err == nil {
				r.mentions = append(r.mentions, mn)
			}
		case "gkg":
			var rec GKGRecord
			if rec, err = ParseGKGFields(fields); err == nil {
				r.gkg = append(r.gkg, rec)
			}
		default:
			return r, false
		}
		if err != nil {
			r.bad = append(r.bad, err.Error())
		}
	}
	return r, true
}

// FuzzParseChunk: for any bytes and kind, ParseChunk hands its sink the
// rows and the bad-row errors of the line-by-line reference, in order,
// and fails exactly when the reference meets a row of an unknown kind.
func FuzzParseChunk(f *testing.F) {
	ev, mn, rec := sampleEvent(), sampleMention(), sampleGKG()
	evRow, mnRow, gkgRow := AppendEventRow(nil, &ev), AppendMentionRow(nil, &mn), AppendGKGRow(nil, &rec)
	lines := func(rows ...[]byte) []byte { return append(bytes.Join(rows, []byte{'\n'}), '\n') }
	short := bytes.Join(bytes.Split(mnRow, []byte{'\t'})[:5], []byte{'\t'})
	badID := append([]byte("x1"), mnRow[bytes.IndexByte(mnRow, '\t'):]...)
	f.Add("export", lines(evRow, evRow))
	f.Add("mentions", lines(mnRow, mnRow))
	f.Add("gkg", lines(gkgRow))
	f.Add("mentions", lines(nil, mnRow, nil, nil, mnRow))
	f.Add("export", evRow) // no final newline
	f.Add("mentions", lines(mnRow, short))
	f.Add("mentions", lines(badID, mnRow))
	f.Add("export", lines(mnRow, evRow))
	f.Add("bogus", lines(evRow))
	f.Add("bogus", []byte("\n\n"))
	f.Add("gkg", []byte(""))
	f.Fuzz(func(t *testing.T, kind string, data []byte) {
		want, known := referenceChunk(kind, data)
		var got chunkRows
		err := ParseChunk(kind, data, ChunkSink{
			Event:   func(ev Event) { got.events = append(got.events, ev) },
			Mention: func(mn Mention) { got.mentions = append(got.mentions, mn) },
			GKG:     func(rec GKGRecord) { got.gkg = append(got.gkg, rec) },
			BadRow:  func(err error) { got.bad = append(got.bad, err.Error()) },
		})
		if (err == nil) != known {
			t.Fatalf("kind %q: error %v, but the reference parses: %v", kind, err, known)
		}
		// Compared as text: a "NaN" float field parses to a NaN, which
		// reflect.DeepEqual never finds equal to itself.
		if known && fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
			t.Fatalf("kind %q: got %d events, %d mentions, %d gkg rows, bad rows %q; the reference %d, %d, %d, %q",
				kind, len(got.events), len(got.mentions), len(got.gkg), got.bad,
				len(want.events), len(want.mentions), len(want.gkg), want.bad)
		}
	})
}
