package gdelt

import "testing"

func TestCountryTableInvariants(t *testing.T) {
	if len(Countries) < 50 {
		t.Fatalf("need at least 50 countries for Figure 8, have %d", len(Countries))
	}
	seenFIPS := map[string]bool{}
	seenTLD := map[string]bool{}
	for _, c := range Countries {
		if c.FIPS == "" || c.Name == "" || c.TLD == "" {
			t.Fatalf("incomplete country %+v", c)
		}
		if seenFIPS[c.FIPS] {
			t.Fatalf("duplicate FIPS %q", c.FIPS)
		}
		if seenTLD[c.TLD] {
			t.Fatalf("duplicate TLD %q", c.TLD)
		}
		seenFIPS[c.FIPS] = true
		seenTLD[c.TLD] = true
	}
}

func TestPaperCountriesPresent(t *testing.T) {
	// Top publishing countries (Table V) and top reported countries
	// (Table VI) must all be present.
	for _, fips := range []string{"UK", "US", "AS", "IN", "IT", "CA", "SF", "NI", "BG", "RP",
		"CH", "RS", "IS", "PK"} {
		if CountryIndex(fips) < 0 {
			t.Fatalf("missing paper country %q", fips)
		}
	}
}

func TestCountryLookups(t *testing.T) {
	if i := CountryIndex("UK"); i < 0 || Countries[i].Name != "United Kingdom" {
		t.Fatalf("UK lookup: index %d", i)
	}
	if CountryIndex("XX") != -1 {
		t.Fatal("unknown FIPS should miss")
	}
	if CountryIndex("US") != 1 {
		t.Fatalf("US index %d (table order matters for the experiments)", CountryIndex("US"))
	}
}

func TestCountryFromDomain(t *testing.T) {
	cases := map[string]string{
		"dailyecho.co.uk":       "UK",
		"www.nytimes.com":       "US",
		"theguardian.com":       "US", // the TLD heuristic's documented inaccuracy
		"news.com.au":           "AS",
		"timesofindia.in":       "IN",
		"corriere.it":           "IT",
		"cbc.ca":                "CA",
		"news24.co.za":          "SF",
		"punchng.ng":            "NI",
		"thedailystar.com.bd":   "BG",
		"inquirer.ph":           "RP",
		"xinhua.cn":             "CH",
		"rt.ru":                 "RS",
		"haaretz.co.il":         "IS",
		"dawn.pk":               "PK",
		"somesite.org":          "US",
		"another.net":           "US",
		"deep.sub.domain.co.uk": "UK",
	}
	for domain, wantFIPS := range cases {
		got := CountryFromDomain(domain)
		if got < 0 {
			t.Fatalf("%q unattributed", domain)
		}
		if Countries[got].FIPS != wantFIPS {
			t.Fatalf("%q -> %s want %s", domain, Countries[got].FIPS, wantFIPS)
		}
	}
}

func TestCountryFromDomainUnknown(t *testing.T) {
	for _, d := range []string{"localhost", "site.xyz", "", "onelabel"} {
		if got := CountryFromDomain(d); got >= 0 {
			t.Fatalf("%q should be unattributed, got %s", d, Countries[got].FIPS)
		}
	}
}

func TestCountryFromDomainCaseAndDot(t *testing.T) {
	if got := CountryFromDomain("News.Example.CO.UK."); got < 0 || Countries[got].FIPS != "UK" {
		t.Fatalf("case/dot handling broken: %d", got)
	}
}
