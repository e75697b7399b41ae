package convert

import (
	"bytes"
	"reflect"
	"testing"

	"gdeltmine/internal/binfmt"
	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/store"
)

// fromFullRecords is FromCorpus as it reads before lean rows: a Builder fed
// the full records the raw writer emits, with no staging reserved.
func fromFullRecords(t *testing.T, c *gen.Corpus) *Result {
	t.Helper()
	b, err := store.NewBuilder(c.World.Cfg.Start, int32(c.World.Days()*gdelt.IntervalsPerDay))
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Events {
		ev := c.EventRecord(i)
		b.AddEvent(&ev)
	}
	for j := range c.Mentions {
		mn := c.MentionRecord(j)
		b.AddMention(&mn)
		if c.World.Cfg.GKG {
			rec := c.GKGRecord(j)
			b.AddGKG(&rec)
		}
	}
	db, stats, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return &Result{DB: db, Stats: stats}
}

func encode(t *testing.T, db *store.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := binfmt.Write(&buf, db); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLeanRowsBuildFullRowsStore: FromCorpus's lean rows and reserved
// staging must build the store the full records build, byte for byte in
// the binary format, with the same build stats and defect report — on the
// Small preset with its defects injected, with GKG on and off.
func TestLeanRowsBuildFullRowsStore(t *testing.T) {
	for _, withGKG := range []bool{true, false} {
		cfg := gen.Small()
		cfg.GKG = withGKG
		c, err := gen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		lean, err := FromCorpus(c)
		if err != nil {
			t.Fatal(err)
		}
		full := fromFullRecords(t, c)
		if (lean.DB.GKG != nil) != withGKG || (full.DB.GKG != nil) != withGKG {
			t.Fatalf("gkg=%v: GKG store present: lean %v, full %v", withGKG, lean.DB.GKG != nil, full.DB.GKG != nil)
		}
		if lean.Stats != full.Stats {
			t.Fatalf("gkg=%v: stats %+v, full records give %+v", withGKG, lean.Stats, full.Stats)
		}
		if !reflect.DeepEqual(lean.DB.Report, full.DB.Report) {
			t.Fatalf("gkg=%v: report %v, full records give %v", withGKG, lean.DB.Report, full.DB.Report)
		}
		if lean.DB.Report.Counts[gdelt.DefectMissingSourceURL] == 0 || lean.DB.Report.Counts[gdelt.DefectFutureEventDate] == 0 {
			t.Fatalf("gkg=%v: injected defects missing from the report: %v", withGKG, lean.DB.Report.Counts)
		}
		if !bytes.Equal(encode(t, lean.DB), encode(t, full.DB)) {
			t.Fatalf("gkg=%v: binfmt bytes differ between lean and full rows", withGKG)
		}
	}
}

// TestLeanRecordsAreFullRecordsMinusUnreadFields pins what a lean row
// leaves out: exactly the fields store.Builder never reads. It also shows
// that the reused theme array carries nothing over from the previous row.
func TestLeanRecordsAreFullRecordsMinusUnreadFields(t *testing.T) {
	c := generateSmall(t)
	var mn gdelt.Mention
	var rec gdelt.GKGRecord
	for j := range c.Mentions {
		c.LeanMentionRecord(j, &mn)
		want := c.MentionRecord(j)
		want.Identifier = ""
		if mn != want {
			t.Fatalf("mention %d: lean %+v, full minus Identifier %+v", j, mn, want)
		}
		c.LeanGKGRecord(j, &rec)
		g := c.GKGRecord(j)
		g.RecordID, g.DocID, g.Persons, g.Organizations = "", "", nil, nil
		if !reflect.DeepEqual(rec, g) {
			t.Fatalf("gkg %d: lean %+v, full minus RecordID/DocID/Persons/Organizations %+v", j, rec, g)
		}
	}
}
