package registry

import (
	"net/url"
	"testing"

	"gdeltmine/internal/shard"
)

// FuzzQueryParams feeds an arbitrary raw query string to an arbitrary
// kind, the way a transport hands one over from a URL, and checks the
// parameter layer's contract on it:
//
//	(a) ParseURLValues never panics, and every error it returns is a
//	    parameter error (IsBadParam), so transports answer 400, never 500;
//	(b) Canonical is a fixed point: parsing Canonical(p) again yields the
//	    same canonical string, the property cache keys rely on;
//	(c) DeriveView over a K=3 world never panics and fails only with
//	    parameter errors, whatever workers=, from= and to= hold.
//
// The seeds are the spellings the registry's unit tests use, plus shards=
// spellings, which no kind accepts and DeriveView ignores.
func FuzzQueryParams(f *testing.F) {
	for _, raw := range []string{
		"",
		"k=3&k=7",
		"k=99999",
		"k=abc",
		"k=0",
		"k=-3",
		"window=8&min=5&k=10",
		"where=" + url.QueryEscape("tone>5 and delay>2"),
		"where=" + url.QueryEscape("delay>2 && tone>5.0"),
		"where=" + url.QueryEscape("delay > 96 & tone < 0"),
		"agg=COUNT&group=" + url.QueryEscape(" Quarter "),
		"explain=yes&where=" + url.QueryEscape("tone>0"),
		"explain=maybe",
		"theme=ECON&theme=TAX",
		"theme=A,B",
		"shards=0,2",
		"shards=2,0,2",
		"shards=3",
		"shards=,",
		"workers=4",
		"workers=-3",
		"from=20150301000000&to=20160101000000",
		"from=40&to=120",
		"to=20150101000000&from=20170101000000",
		"plan=scan",
	} {
		for kind := range All() {
			f.Add(uint8(kind), raw)
		}
	}
	sdb, err := shard.Split(testDB(f), 3)
	if err != nil {
		f.Fatal(err)
	}
	base := sdb.View()
	all := All()
	f.Fuzz(func(t *testing.T, kind uint8, raw string) {
		d := all[int(kind)%len(all)]
		// Transports read r.URL.Query(), which keeps what parsed and drops
		// the error; do the same.
		q, _ := url.ParseQuery(raw)
		p, err := d.ParseURLValues(q)
		if err != nil && !IsBadParam(err) {
			t.Fatalf("%s %q: parse error %v is not a parameter error", d.Kind, raw, err)
		}
		if err == nil {
			c := d.Canonical(p)
			q2, err := url.ParseQuery(c)
			if err != nil {
				t.Fatalf("%s %q: canonical %q does not parse as a query: %v", d.Kind, raw, c, err)
			}
			p2, err := d.ParseURLValues(q2)
			if err != nil {
				t.Fatalf("%s %q: canonical %q does not parse: %v", d.Kind, raw, c, err)
			}
			if c2 := d.Canonical(p2); c2 != c {
				t.Fatalf("%s %q: canonical %q reparses to %q", d.Kind, raw, c, c2)
			}
		}
		if _, err := DeriveView(base, func(name string) []string { return q[name] }); err != nil && !IsBadParam(err) {
			t.Fatalf("%q: DeriveView error %v is not a parameter error", raw, err)
		}
	})
}
