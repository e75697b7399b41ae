package gdelt

import (
	"bytes"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func sampleEvent() Event {
	return Event{
		GlobalEventID: 123456789,
		Day:           20160612,
		EventCode:     190,
		QuadClass:     4,
		IsRootEvent:   true,
		Goldstein:     -10,
		NumMentions:   5234,
		NumSources:    42,
		NumArticles:   5234,
		AvgTone:       -3.25,
		ActionCountry: "US",
		ActionLat:     28.5383,
		ActionLong:    -81.3792,
		DateAdded:     20160612083000,
		SourceURL:     "https://news.example.com/orlando",
	}
}

func sampleMention() Mention {
	return Mention{
		GlobalEventID: 123456789,
		EventTime:     20160612083000,
		MentionTime:   20160612113000,
		MentionType:   MentionTypeWeb,
		SourceName:    "dailyecho.co.uk",
		Identifier:    "https://dailyecho.co.uk/news/1",
		SentenceID:    3,
		Confidence:    90,
		DocLen:        2100,
		DocTone:       -2.5,
	}
}

func TestSplitTabs(t *testing.T) {
	fields := SplitTabs([]byte("a\tb\t\tc"), nil)
	if len(fields) != 4 || string(fields[0]) != "a" || string(fields[2]) != "" || string(fields[3]) != "c" {
		t.Fatalf("fields %q", fields)
	}
	// Empty line is a single empty field.
	fields = SplitTabs(nil, fields)
	if len(fields) != 1 || len(fields[0]) != 0 {
		t.Fatalf("empty line fields %q", fields)
	}
}

func TestSplitTabsProperty(t *testing.T) {
	f := func(parts []string) bool {
		for i := range parts {
			parts[i] = strings.Map(func(r rune) rune {
				if r == '\t' || r == '\n' {
					return '_'
				}
				return r
			}, parts[i])
		}
		line := strings.Join(parts, "\t")
		fields := SplitTabs([]byte(line), nil)
		if len(parts) == 0 {
			return len(fields) == 1 && len(fields[0]) == 0
		}
		if len(fields) != len(parts) {
			return false
		}
		for i := range parts {
			if string(fields[i]) != parts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEventRowRoundTrip(t *testing.T) {
	ev := sampleEvent()
	row := AppendEventRow(nil, &ev)
	if n := bytes.Count(row, []byte{'\t'}); n != len(EventColumns)-1 {
		t.Fatalf("event row has %d tabs, want %d", n, len(EventColumns)-1)
	}
	got, err := ParseEventFields(SplitTabs(row, nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.GlobalEventID != ev.GlobalEventID || got.Day != ev.Day ||
		got.EventCode != ev.EventCode || got.QuadClass != ev.QuadClass ||
		got.IsRootEvent != ev.IsRootEvent || got.NumMentions != ev.NumMentions ||
		got.NumSources != ev.NumSources || got.NumArticles != ev.NumArticles ||
		got.ActionCountry != ev.ActionCountry || got.DateAdded != ev.DateAdded ||
		got.SourceURL != ev.SourceURL {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, ev)
	}
	if got.Goldstein != ev.Goldstein {
		t.Fatalf("goldstein %v vs %v", got.Goldstein, ev.Goldstein)
	}
}

func TestMentionRowRoundTrip(t *testing.T) {
	mn := sampleMention()
	row := AppendMentionRow(nil, &mn)
	if n := bytes.Count(row, []byte{'\t'}); n != len(MentionColumns)-1 {
		t.Fatalf("mention row has %d tabs, want %d", n, len(MentionColumns)-1)
	}
	fields := SplitTabs(row, nil)
	if string(fields[MnColIdentifier]) != mn.Identifier {
		t.Fatalf("identifier column %q, want %q", fields[MnColIdentifier], mn.Identifier)
	}
	got, err := ParseMentionFields(fields)
	if err != nil {
		t.Fatal(err)
	}
	// The parse leaves the article URL out: no store reads it.
	want := mn
	want.Identifier = ""
	if got != want {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestParseEventWrongColumnCount(t *testing.T) {
	if _, err := ParseEventFields(SplitTabs([]byte("1\t2\t3"), nil)); err == nil {
		t.Fatal("short event row should fail")
	}
}

func TestParseMentionWrongColumnCount(t *testing.T) {
	if _, err := ParseMentionFields(SplitTabs([]byte("1\t2"), nil)); err == nil {
		t.Fatal("short mention row should fail")
	}
}

func TestParseEventBadNumbers(t *testing.T) {
	ev := sampleEvent()
	row := AppendEventRow(nil, &ev)
	fields := SplitTabs(row, nil)
	fields[EvColGlobalEventID] = []byte("x1")
	if _, err := ParseEventFields(fields); err == nil {
		t.Fatal("bad event id should fail")
	}
	fields = SplitTabs(row, nil)
	fields[EvColNumArticles] = []byte("1.5x")
	if _, err := ParseEventFields(fields); err == nil {
		t.Fatal("bad article count should fail")
	}
}

func TestParseMentionBadNumbers(t *testing.T) {
	mn := sampleMention()
	row := AppendMentionRow(nil, &mn)
	fields := SplitTabs(row, nil)
	fields[MnColMentionTimeDate] = []byte("not-a-time")
	if _, err := ParseMentionFields(fields); err == nil {
		t.Fatal("bad mention time should fail")
	}
	fields = SplitTabs(row, nil)
	fields[MnColDocTone] = []byte("??")
	if _, err := ParseMentionFields(fields); err == nil {
		t.Fatal("bad tone should fail")
	}
}

func TestParseIntField(t *testing.T) {
	cases := map[string]int64{"": 0, "0": 0, "42": 42, "-7": -7}
	for in, want := range cases {
		got, err := parseInt64Field([]byte(in))
		if err != nil || got != want {
			t.Fatalf("parseInt64Field(%q) = %d, %v", in, got, err)
		}
	}
	for _, bad := range []string{"-", "1a", "--2", " 1"} {
		if _, err := parseInt64Field([]byte(bad)); err == nil {
			t.Fatalf("parseInt64Field(%q) should fail", bad)
		}
	}
}

func TestParseFloatField(t *testing.T) {
	got, err := parseFloat32Field([]byte(""))
	if err != nil || got != 0 {
		t.Fatalf("empty float: %v %v", got, err)
	}
	got, err = parseFloat32Field([]byte("-2.5"))
	if err != nil || got != -2.5 {
		t.Fatalf("-2.5: %v %v", got, err)
	}
	if _, err := parseFloat32Field([]byte("abc")); err == nil {
		t.Fatal("bad float should fail")
	}
}

func TestEmptySourceURLSurvivesRoundTrip(t *testing.T) {
	ev := sampleEvent()
	ev.SourceURL = ""
	ev.ActionCountry = ""
	got, err := ParseEventFields(SplitTabs(AppendEventRow(nil, &ev), nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.SourceURL != "" || got.ActionCountry != "" {
		t.Fatalf("expected empty url/country, got %+v", got)
	}
}

// TestWireToneIsTheWrittenTone: WireTone equals, bit for bit, the tone a
// mention row written by AppendMentionRow parses back to — on ties (exact
// binary halves of a hundredth, where the formatting rounds to even),
// signed zeros, the tone generator's range and far beyond it.
func TestWireToneIsTheWrittenTone(t *testing.T) {
	written := func(tone float32) float32 {
		row := AppendMentionRow(nil, &Mention{DocTone: tone})
		mn, err := ParseMentionFields(SplitTabs(row, nil))
		if err != nil {
			t.Fatalf("tone %v: %v", tone, err)
		}
		return mn.DocTone
	}
	tones := []float32{0, float32(math.Copysign(0, -1)), 0.005, -0.005, 0.125, -0.125, 0.375, 2.675, -1e-30, 1e30, 16777215}
	for k := -4000; k <= 4000; k++ {
		tones = append(tones, float32(k)/8, float32(k)/100, float32(k)/100+1e-4)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for range 200_000 {
		tones = append(tones, float32(rng.NormFloat64()*2-1), float32((rng.Float64()-0.5)*2e5))
	}
	for _, tone := range tones {
		if got, want := WireTone(tone), written(tone); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("WireTone(%v) = %v, the written row reads %v (%s)", tone, got, want,
				strconv.FormatFloat(float64(tone), 'f', 2, 32))
		}
	}
}
