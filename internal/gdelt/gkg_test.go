package gdelt

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func sampleGKG() GKGRecord {
	return GKGRecord{
		RecordID:      "20160612083000-42",
		Date:          20160612083000,
		SourceName:    "dailyecho.co.uk",
		DocID:         "https://dailyecho.co.uk/news/1",
		Themes:        []string{"TERROR", "KILL", "WB_2024_SECURITY"},
		Persons:       []string{"john smith", "jane doe"},
		Organizations: []string{"metropolitan police"},
		Tone:          -7.25,
		Translated:    true,
	}
}

func TestGKGRowRoundTrip(t *testing.T) {
	r := sampleGKG()
	row := AppendGKGRow(nil, &r)
	if n := bytes.Count(row, []byte{'\t'}); n != len(GKGColumns)-1 {
		t.Fatalf("gkg row has %d tabs, want %d", n, len(GKGColumns)-1)
	}
	fields := SplitTabs(row, nil)
	for _, c := range []struct {
		col  int
		want string
	}{
		{GkgColDocID, r.DocID},
		{GkgColPersons, "john smith;jane doe"},
		{GkgColOrgs, "metropolitan police"},
	} {
		if string(fields[c.col]) != c.want {
			t.Fatalf("column %s: %q, want %q", GKGColumns[c.col], fields[c.col], c.want)
		}
	}
	got, err := ParseGKGFields(fields)
	if err != nil {
		t.Fatal(err)
	}
	if got.RecordID != r.RecordID || got.Date != r.Date || got.SourceName != r.SourceName {
		t.Fatalf("identity: %+v", got)
	}
	if len(got.Themes) != 3 || got.Themes[0] != "TERROR" || got.Themes[2] != "WB_2024_SECURITY" {
		t.Fatalf("themes %v", got.Themes)
	}
	// The parse leaves what no store keeps empty.
	if got.DocID != "" || got.Persons != nil || got.Organizations != nil {
		t.Fatalf("unread fields parsed: %+v", got)
	}
	if got.Tone != -7.25 {
		t.Fatalf("tone %v", got.Tone)
	}
	if !got.Translated {
		t.Fatal("translation flag lost")
	}
}

func TestGKGEmptyAnnotations(t *testing.T) {
	r := sampleGKG()
	r.Themes = nil
	r.Persons = nil
	r.Organizations = nil
	r.Translated = false
	got, err := ParseGKGFields(SplitTabs(AppendGKGRow(nil, &r), nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.Themes != nil || got.Persons != nil || got.Organizations != nil {
		t.Fatalf("expected empty annotations: %+v", got)
	}
	if got.Translated {
		t.Fatal("translation flag invented")
	}
}

func TestGKGParseErrors(t *testing.T) {
	if _, err := ParseGKGFields(SplitTabs([]byte("a\tb"), nil)); err == nil {
		t.Fatal("short row accepted")
	}
	r := sampleGKG()
	row := AppendGKGRow(nil, &r)
	fields := SplitTabs(row, nil)
	fields[GkgColDate] = []byte("yesterday")
	if _, err := ParseGKGFields(fields); err == nil {
		t.Fatal("bad date accepted")
	}
	fields = SplitTabs(row, nil)
	fields[GkgColRecordID] = nil
	if _, err := ParseGKGFields(fields); err == nil {
		t.Fatal("empty record id accepted")
	}
	fields = SplitTabs(row, nil)
	fields[GkgColTone] = []byte("abc,0")
	if _, err := ParseGKGFields(fields); err == nil {
		t.Fatal("bad tone accepted")
	}
}

func TestSplitSemis(t *testing.T) {
	if got := splitSemis(nil); got != nil {
		t.Fatal("nil input")
	}
	if got := splitSemis([]byte(";;")); got != nil {
		t.Fatalf("empties: %v", got)
	}
	got := splitSemis([]byte("A;;B;"))
	if len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Fatalf("split %v", got)
	}
}

// TestGKGToneMatchesSprintf: the V2Tone head AppendGKGRow writes is the
// text fmt's %.2f gives the float32 tone, for every hundredth in
// [-100, 100], for both zeros and for a million seeded random bit
// patterns (NaN and the infinities included).
func TestGKGToneMatchesSprintf(t *testing.T) {
	r := sampleGKG()
	var row []byte
	var fields [][]byte
	check := func(tone float32) {
		r.Tone = tone
		row = AppendGKGRow(row[:0], &r)
		fields = SplitTabs(row, fields)
		if got, want := string(fields[GkgColTone]), fmt.Sprintf("%.2f,0,0,0", tone); got != want {
			t.Fatalf("tone %v (bits %#x): wrote %q, want %q", tone, math.Float32bits(tone), got, want)
		}
	}
	for k := -10000; k <= 10000; k++ {
		check(float32(k) / 100)
	}
	check(0)
	check(float32(math.Copysign(0, -1)))
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < 1_000_000; i++ {
		check(math.Float32frombits(rng.Uint32()))
	}
}
