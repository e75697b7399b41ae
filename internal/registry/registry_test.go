package registry

import (
	"strconv"
	"strings"
	"testing"
)

// getter builds a ParseParams source from a literal map.
func getter(m map[string][]string) func(string) []string {
	return func(name string) []string { return m[name] }
}

func TestCanonicalMaterializesDefaults(t *testing.T) {
	d := MustLookup("wildfires")
	p, err := d.ParseParams(getter(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := d.Canonical(p), "window=8&min=5&k=10"; got != want {
		t.Fatalf("canonical %q want %q", got, want)
	}
	// Explicitly passing the defaults produces the identical key: absent,
	// present, and reordered requests all collapse onto one cache entry.
	p2, err := d.ParseParams(getter(map[string][]string{
		"k": {"10"}, "window": {"8"}, "min": {"5"},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if d.Canonical(p) != d.Canonical(p2) {
		t.Fatalf("explicit defaults changed the key: %q vs %q", d.Canonical(p), d.Canonical(p2))
	}
}

func TestCanonicalLastValueWinsAndClamping(t *testing.T) {
	for _, tc := range []struct {
		kind string
		max  int
	}{
		{"themes", 1000},
		{"coreport", 512},
		{"follow", 512},
	} {
		d := MustLookup(tc.kind)
		p, err := d.ParseParams(getter(map[string][]string{"k": {"3", "7"}}))
		if err != nil {
			t.Fatal(err)
		}
		if p.Int("k") != 7 {
			t.Fatalf("%s: last value should win, got %d", tc.kind, p.Int("k"))
		}
		for _, raw := range []string{strconv.Itoa(tc.max), strconv.Itoa(tc.max + 1), "99999"} {
			p, err = d.ParseParams(getter(map[string][]string{"k": {raw}}))
			if err != nil {
				t.Fatal(err)
			}
			if p.Int("k") != tc.max {
				t.Fatalf("%s: k=%s parsed to %d, want the static max %d", tc.kind, raw, p.Int("k"), tc.max)
			}
			if got, want := d.Canonical(p), "k="+strconv.Itoa(tc.max); got != want {
				t.Fatalf("%s: canonical %q should carry the clamped value %q", tc.kind, got, want)
			}
		}
	}
}

func TestCanonicalEscapesStrings(t *testing.T) {
	d := MustLookup("count")
	p, err := d.ParseParams(getter(map[string][]string{"where": {"delay > 96 & tone < 0"}}))
	if err != nil {
		t.Fatal(err)
	}
	got := d.Canonical(p)
	if strings.ContainsAny(got, " ") {
		t.Fatalf("canonical %q must not contain raw spaces", got)
	}
	if !strings.HasPrefix(got, "where=") {
		t.Fatalf("canonical %q", got)
	}
}

func TestParseParamsErrors(t *testing.T) {
	cases := []struct {
		kind   string
		params map[string][]string
	}{
		{"top-publishers", map[string][]string{"k": {"abc"}}},
		{"top-publishers", map[string][]string{"k": {"0"}}},
		{"top-publishers", map[string][]string{"k": {"-3"}}},
		{"theme-trends", nil}, // required theme missing
	}
	for _, tc := range cases {
		d := MustLookup(tc.kind)
		_, err := d.ParseParams(getter(tc.params))
		if err == nil {
			t.Fatalf("%s %v: expected error", tc.kind, tc.params)
		}
		if !IsBadParam(err) {
			t.Fatalf("%s %v: %v should be a bad-param error", tc.kind, tc.params, err)
		}
	}
}

func TestCheckKnown(t *testing.T) {
	d := MustLookup("top-publishers")
	if err := d.CheckKnown([]string{"k", "workers", "from", "to"}); err != nil {
		t.Fatalf("schema and common params must pass: %v", err)
	}
	// A stale client's plan= must fail loudly, like a typo.
	for _, name := range []string{"kk", "plan"} {
		err := d.CheckKnown([]string{name})
		if err == nil || !IsBadParam(err) {
			t.Fatalf("%q should be a bad-param error, got %v", name, err)
		}
	}
}

func TestLookupKnowsOnlyCanonicalKinds(t *testing.T) {
	if d, ok := Lookup("delays"); !ok || d.Kind != "delays" {
		t.Fatalf("canonical kind resolved to %v", d)
	}
	for _, name := range []string{"delay", "publishers", "nonsense"} {
		if _, ok := Lookup(name); ok {
			t.Fatalf("%q resolved; only canonical kinds are registered", name)
		}
	}
}

func TestAllKindsHaveRunAndHelp(t *testing.T) {
	all := All()
	if len(all) < 15 {
		t.Fatalf("only %d kinds registered", len(all))
	}
	seen := map[string]bool{}
	for _, d := range all {
		if d.Kind == "" || d.Help == "" || d.Run == nil {
			t.Fatalf("descriptor %+v incomplete", d)
		}
		if seen[d.Kind] {
			t.Fatalf("duplicate kind %s", d.Kind)
		}
		seen[d.Kind] = true
		for _, spec := range d.Params {
			if IsCommonParam(spec.Name) {
				t.Fatalf("%s declares common param %q in its schema", d.Kind, spec.Name)
			}
		}
	}
	for _, name := range Kinds() {
		if !seen[name] {
			t.Fatalf("Kinds lists %s but All does not", name)
		}
	}
}

func TestIsBadParamUnwraps(t *testing.T) {
	inner := BadParamf("bad value")
	if !IsBadParam(inner) {
		t.Fatal("direct")
	}
	if !IsBadParam(BadParam(inner)) {
		t.Fatal("wrapped")
	}
	if IsBadParam(nil) {
		t.Fatal("nil")
	}
	if BadParam(nil) != nil {
		t.Fatal("BadParam(nil) must be nil")
	}
}
