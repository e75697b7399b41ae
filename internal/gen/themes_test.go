package gen

import (
	"strings"
	"testing"
)

func TestThemeVocabularyConsistent(t *testing.T) {
	seen := map[string]bool{}
	violent := 0
	for i := range themeVocab {
		name := themeVocab[i].Name
		if name == "" || seen[name] {
			t.Fatalf("theme %d invalid or duplicate: %q", i, name)
		}
		seen[name] = true
		if themeVocab[i].Violent {
			violent++
		}
	}
	if violent < 4 {
		t.Fatalf("only %d violent themes", violent)
	}
}

func TestAnnotationsWithinBounds(t *testing.T) {
	c := testCorpus(t)
	for i := range c.Events {
		a := &c.Events[i].Notes
		if a.NumThemes < 1 || int(a.NumThemes) > len(a.Themes) {
			t.Fatalf("event %d theme count %d", i, a.NumThemes)
		}
		for k := uint8(0); k < a.NumThemes; k++ {
			if int(a.Themes[k]) >= len(themeVocab) {
				t.Fatalf("event %d theme id out of range", i)
			}
		}
		if int(a.NumPersons) > len(a.Persons) || int(a.NumOrgs) > len(a.Orgs) {
			t.Fatalf("event %d entity counts out of range", i)
		}
		// Themes within an event are distinct.
		seen := map[uint8]bool{}
		for k := uint8(0); k < a.NumThemes; k++ {
			if seen[a.Themes[k]] {
				t.Fatalf("event %d duplicate theme", i)
			}
			seen[a.Themes[k]] = true
		}
	}
}

func TestHeadlineEventsCarryViolentThemes(t *testing.T) {
	c := testCorpus(t)
	violentName := map[string]bool{}
	for _, tv := range themeVocab {
		if tv.Violent {
			violentName[tv.Name] = true
		}
	}
	headlines, withViolent := 0, 0
	for i := range c.Events {
		if !c.Events[i].Headline {
			continue
		}
		headlines++
		a := &c.Events[i].Notes
		for k := uint8(0); k < a.NumThemes; k++ {
			if violentName[themeVocab[a.Themes[k]].Name] {
				withViolent++
				break
			}
		}
	}
	if headlines == 0 {
		t.Fatal("no headline events")
	}
	// Headline themes draw from the violent vocabulary first, so nearly
	// every headline event carries one.
	if withViolent < headlines*9/10 {
		t.Fatalf("%d of %d headline events carry violent themes", withViolent, headlines)
	}
}

func TestGKGRecordMaterialization(t *testing.T) {
	c := testCorpus(t)
	rec := c.GKGRecord(0)
	if rec.RecordID == "" || !rec.Date.Valid() || rec.SourceName == "" {
		t.Fatalf("record %+v", rec)
	}
	if len(rec.Themes) == 0 {
		t.Fatal("record has no themes")
	}
	if !strings.HasPrefix(rec.DocID, "https://") {
		t.Fatalf("doc id %q", rec.DocID)
	}
	// Same mention materializes identically (determinism).
	rec2 := c.GKGRecord(0)
	if rec.RecordID != rec2.RecordID || len(rec.Themes) != len(rec2.Themes) {
		t.Fatal("GKG materialization not deterministic")
	}
}

func TestTranslationFollowsLanguage(t *testing.T) {
	c := testCorpus(t)
	// Find one UK-source mention and one Italian-source mention.
	var ukChecked, itChecked bool
	for j := range c.Mentions {
		src := &c.World.Sources[c.Mentions[j].Source]
		name := src.Name
		rec := c.GKGRecord(j)
		if strings.HasSuffix(name, ".co.uk") {
			if rec.Translated {
				t.Fatalf("UK source %s marked translated", name)
			}
			ukChecked = true
		}
		if strings.HasSuffix(name, ".it") {
			if !rec.Translated {
				t.Fatalf("Italian source %s not marked translated", name)
			}
			itChecked = true
		}
		if ukChecked && itChecked {
			break
		}
	}
	if !ukChecked || !itChecked {
		t.Skip("corpus lacks one of the probe languages")
	}
}
