package gdelt

import "strings"

// Country describes one country in the analysis: its FIPS 10-4 code (the
// geocoding vocabulary GDELT uses for ActionGeo_CountryCode), a display
// name, and the top-level domain used to attribute news sources to
// countries, the heuristic of Section VI-C.
type Country struct {
	FIPS string
	Name string
	TLD  string // source-attribution suffix, e.g. "co.uk"
}

// Countries is the country table, ordered so the ten countries the paper's
// cross-reporting tables feature come first: the top publishing countries
// (Table V) and top reported countries (Table VI) are all within the first
// fourteen entries, and the remainder extends coverage to the 50-country
// matrices of Figure 8.
var Countries = []Country{
	{"UK", "United Kingdom", "co.uk"},
	{"US", "United States", "com"},
	{"AS", "Australia", "com.au"},
	{"IN", "India", "in"},
	{"IT", "Italy", "it"},
	{"CA", "Canada", "ca"},
	{"SF", "South Africa", "co.za"},
	{"NI", "Nigeria", "ng"},
	{"BG", "Bangladesh", "com.bd"},
	{"RP", "Philippines", "ph"},
	{"CH", "China", "cn"},
	{"RS", "Russia", "ru"},
	{"IS", "Israel", "co.il"},
	{"PK", "Pakistan", "pk"},
	{"GM", "Germany", "de"},
	{"FR", "France", "fr"},
	{"SP", "Spain", "es"},
	{"JA", "Japan", "jp"},
	{"BR", "Brazil", "com.br"},
	{"MX", "Mexico", "mx"},
	{"AR", "Argentina", "com.ar"},
	{"TU", "Turkey", "com.tr"},
	{"EG", "Egypt", "eg"},
	{"SA", "Saudi Arabia", "sa"},
	{"IR", "Iran", "ir"},
	{"IZ", "Iraq", "iq"},
	{"SY", "Syria", "sy"},
	{"AF", "Afghanistan", "af"},
	{"KE", "Kenya", "co.ke"},
	{"GH", "Ghana", "com.gh"},
	{"EI", "Ireland", "ie"},
	{"NZ", "New Zealand", "co.nz"},
	{"SN", "Singapore", "sg"},
	{"MY", "Malaysia", "com.my"},
	{"ID", "Indonesia", "co.id"},
	{"TH", "Thailand", "co.th"},
	{"VM", "Vietnam", "vn"},
	{"KS", "South Korea", "co.kr"},
	{"KN", "North Korea", "kp"},
	{"UP", "Ukraine", "ua"},
	{"PL", "Poland", "pl"},
	{"NL", "Netherlands", "nl"},
	{"SW", "Sweden", "se"},
	{"NO", "Norway", "no"},
	{"DA", "Denmark", "dk"},
	{"FI", "Finland", "fi"},
	{"SZ", "Switzerland", "ch"},
	{"AU", "Austria", "at"},
	{"GR", "Greece", "gr"},
	{"PO", "Portugal", "pt"},
	{"BE", "Belgium", "be"},
	{"CE", "Sri Lanka", "lk"},
	{"NP", "Nepal", "com.np"},
	{"UAE", "United Arab Emirates", "ae"},
	{"QA", "Qatar", "qa"},
	{"JO", "Jordan", "jo"},
	{"LE", "Lebanon", "com.lb"},
	{"ZI", "Zimbabwe", "co.zw"},
	{"UG", "Uganda", "ug"},
	{"TZ", "Tanzania", "co.tz"},
}

var fipsIndex = func() map[string]int {
	m := make(map[string]int, len(Countries))
	for i, c := range Countries {
		m[c.FIPS] = i
	}
	return m
}()

var tldIndex = func() map[string]int {
	m := make(map[string]int, len(Countries))
	for i, c := range Countries {
		m[c.TLD] = i
	}
	return m
}()

// CountryIndex returns the index of the FIPS code in Countries, or -1.
func CountryIndex(fips string) int {
	if i, ok := fipsIndex[fips]; ok {
		return i
	}
	return -1
}

// CountryFromDomain attributes a news source domain to a country by its
// top-level domain, the Section VI-C heuristic. Compound suffixes
// ("co.uk", "com.au") are matched before single-label ones, and the generic
// TLDs com/org/net attribute to the United States. Unknown suffixes return
// -1, mirroring sources the paper could not attribute (e.g.
// theguardian.com counts as US — the inaccuracy the paper acknowledges).
func CountryFromDomain(domain string) int {
	domain = strings.ToLower(strings.TrimSuffix(domain, "."))
	dot := strings.LastIndexByte(domain, '.')
	if dot < 0 {
		return -1 // one label: no suffix to attribute
	}
	// The suffixes are substrings of domain: a lookup allocates nothing.
	if dot2 := strings.LastIndexByte(domain[:dot], '.'); dot2 >= 0 {
		if i, ok := tldIndex[domain[dot2+1:]]; ok {
			return i
		}
	}
	last := domain[dot+1:]
	switch last {
	case "org", "net":
		return CountryIndex("US")
	}
	if i, ok := tldIndex[last]; ok {
		return i
	}
	return -1
}
