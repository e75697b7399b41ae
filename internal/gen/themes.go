package gen

import (
	"fmt"
	"math/rand"

	"gdeltmine/internal/gdelt"
)

// The GKG theme vocabulary: a compact analogue of GDELT's theme taxonomy.
// Weights set base frequency; Violent themes concentrate on headline events
// (the mass-shooting analogues of Table III).
var themeVocab = []struct {
	Name    string
	Weight  float64
	Violent bool
}{
	{"TERROR", 4, true},
	{"KILL", 5, true},
	{"ARMEDCONFLICT", 3, true},
	{"SECURITY_SERVICES", 4, true},
	{"WOUND", 3, true},
	{"CRIME_GUN", 3, true},
	{"ELECTION", 6, false},
	{"GENERAL_GOVERNMENT", 8, false},
	{"LEGISLATION", 4, false},
	{"TAX_POLICY", 3, false},
	{"ECON_STOCKMARKET", 5, false},
	{"ECON_INFLATION", 3, false},
	{"ECON_TRADE", 4, false},
	{"UNEMPLOYMENT", 2, false},
	{"ENERGY", 3, false},
	{"OIL_PRICES", 2, false},
	{"ENVIRONMENT", 4, false},
	{"CLIMATE_CHANGE", 3, false},
	{"NATURAL_DISASTER", 3, false},
	{"HEALTH_PANDEMIC", 2, false},
	{"MEDICAL", 4, false},
	{"EDUCATION", 3, false},
	{"IMMIGRATION", 3, false},
	{"REFUGEES", 2, false},
	{"PROTEST", 4, false},
	{"CORRUPTION", 3, false},
	{"MEDIA_CENSORSHIP", 1, false},
	{"INTERNET_BLACKOUT", 1, false},
	{"CYBER_ATTACK", 2, false},
	{"SCIENCE", 2, false},
	{"SPACE", 1, false},
	{"SPORTS", 6, false},
	{"ENTERTAINMENT", 5, false},
	{"RELIGION", 2, false},
	{"AGRICULTURE", 2, false},
	{"TRANSPORT", 3, false},
	{"HOUSING", 2, false},
	{"LABOR_STRIKE", 2, false},
	{"ROYALTY", 2, false},
	{"DIPLOMACY", 4, false},
}

var personFirst = []string{
	"james", "mary", "robert", "patricia", "john", "jennifer", "michael",
	"linda", "david", "elizabeth", "william", "susan", "richard", "jessica",
	"joseph", "sarah", "thomas", "karen", "carlos", "amina", "wei", "priya",
	"olga", "hiroshi", "fatima", "lars",
}

var personLast = []string{
	"smith", "johnson", "williams", "brown", "jones", "garcia", "miller",
	"davis", "martinez", "lopez", "wilson", "anderson", "taylor", "thomas",
	"moore", "jackson", "martin", "lee", "petrov", "tanaka", "okafor",
	"sharma", "nguyen", "larsen", "rossi", "khan",
}

var orgWords = []string{
	"national", "united", "federal", "global", "central", "royal",
	"metropolitan", "international", "regional", "civic",
}

var orgNouns = []string{
	"police", "bank", "assembly", "commission", "ministry", "council",
	"agency", "institute", "federation", "authority", "exchange", "court",
}

// themeModel holds the sampled GKG world: alias tables and entity pools.
type themeModel struct {
	normal  *aliasTable // all themes by weight
	violent *aliasTable // violent themes only
	persons []string
	orgs    []string
}

func newThemeModel(seed int64) *themeModel {
	rng := rand.New(rand.NewSource(subSeed(seed, 0x6146)))
	m := &themeModel{}
	weights := make([]float64, len(themeVocab))
	vweights := make([]float64, len(themeVocab))
	for i, t := range themeVocab {
		weights[i] = t.Weight
		if t.Violent {
			vweights[i] = t.Weight
		}
	}
	m.normal = newAliasTable(weights)
	m.violent = newAliasTable(vweights)
	const nPersons, nOrgs = 400, 120
	for i := 0; i < nPersons; i++ {
		m.persons = append(m.persons, fmt.Sprintf("%s %s",
			personFirst[rng.Intn(len(personFirst))], personLast[rng.Intn(len(personLast))]))
	}
	for i := 0; i < nOrgs; i++ {
		m.orgs = append(m.orgs, fmt.Sprintf("%s %s",
			orgWords[rng.Intn(len(orgWords))], orgNouns[rng.Intn(len(orgNouns))]))
	}
	return m
}

// Annotations is the compact per-event GKG annotation set. Fixed-size
// arrays keep gen.Event comparable (determinism tests compare with ==).
type Annotations struct {
	NumThemes  uint8
	Themes     [4]uint8
	NumPersons uint8
	Persons    [3]int16
	NumOrgs    uint8
	Orgs       [2]int16
}

// sampleAnnotations draws an event's themes and entities. Headline events
// draw from the violent vocabulary, matching Table III's composition.
func (m *themeModel) sampleAnnotations(rng *rand.Rand, headline bool) Annotations {
	var a Annotations
	table := m.normal
	if headline {
		table = m.violent
	}
	a.NumThemes = uint8(1 + rng.Intn(4))
	seen := map[uint8]bool{}
	for i := uint8(0); i < a.NumThemes; i++ {
		th := uint8(table.sample(rng))
		for seen[th] {
			th = uint8(m.normal.sample(rng))
		}
		seen[th] = true
		a.Themes[i] = th
	}
	a.NumPersons = uint8(rng.Intn(4))
	for i := uint8(0); i < a.NumPersons; i++ {
		a.Persons[i] = int16(rng.Intn(len(m.persons)))
	}
	a.NumOrgs = uint8(rng.Intn(3))
	for i := uint8(0); i < a.NumOrgs; i++ {
		a.Orgs[i] = int16(rng.Intn(len(m.orgs)))
	}
	return a
}

// englishSpeaking reports whether a country's press publishes in English
// (and therefore reaches GDELT untranslated).
func englishSpeaking(country int16) bool {
	if country < 0 {
		return false
	}
	switch gdelt.Countries[country].FIPS {
	case "UK", "US", "AS", "IN", "CA", "SF", "NI", "NZ", "EI", "GH", "RP", "KE", "UG", "TZ", "ZI", "PK", "BG", "CE", "SN", "MY":
		return true
	}
	return false
}

// GKGRecord materializes the GKG row of mention j. Annotations come from
// the event; the translation flag reflects the source's country (non-anglo
// press is machine-translated, Section III's 65-language feed).
func (c *Corpus) GKGRecord(j int) gdelt.GKGRecord {
	var rec gdelt.GKGRecord
	c.gkgRecord(j, &rec, true)
	return rec
}

// LeanGKGRecord fills rec with the GKG row of mention j as store.Builder
// reads it: GKGRecord without the record id, the article URL (DocID) and
// the organizations, none of which the builder reads. rec's Themes and
// Persons arrays are reused, so a caller filling one record per row
// allocates nothing; it must not keep those slices across calls.
func (c *Corpus) LeanGKGRecord(j int, rec *gdelt.GKGRecord) {
	c.gkgRecord(j, rec, false)
}

// gkgRecord fills rec with the GKG row of mention j, appending the themes
// and persons to rec's own arrays; the record id, article URL and
// organizations only when full is set.
func (c *Corpus) gkgRecord(j int, rec *gdelt.GKGRecord, full bool) {
	m := &c.Mentions[j]
	ev := &c.Events[m.Event]
	src := &c.World.Sources[m.Source]
	tm := c.themes
	themes, persons := rec.Themes[:0], rec.Persons[:0]
	*rec = gdelt.GKGRecord{
		Date:       c.IntervalTimestamp(m.Interval),
		SourceName: src.Name,
		Tone:       m.Tone,
		Translated: !englishSpeaking(src.Country),
	}
	a := &ev.Notes
	for i := uint8(0); i < a.NumThemes; i++ {
		themes = append(themes, themeVocab[a.Themes[i]].Name)
	}
	for i := uint8(0); i < a.NumPersons; i++ {
		persons = append(persons, tm.persons[a.Persons[i]])
	}
	rec.Themes, rec.Persons = themes, persons
	if !full {
		return
	}
	rec.RecordID = fmt.Sprintf("%s-%d", rec.Date, j)
	rec.DocID = c.articleURL(m.Source, ev.ID, j)
	for i := uint8(0); i < a.NumOrgs; i++ {
		rec.Organizations = append(rec.Organizations, tm.orgs[a.Orgs[i]])
	}
}
