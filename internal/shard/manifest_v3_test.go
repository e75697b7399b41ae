package shard

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gdeltmine/internal/store"
)

// Version 3 manifest coverage: the value-bitmap sections (country,
// event-country, quarter) round-trip, every other version is rejected, and
// the assembly-time cross-check catches bitmaps that disagree with the part
// data. See DESIGN.md §13.

func tinyManifestAndParts(tb testing.TB) (*Manifest, []*store.DB) {
	tb.Helper()
	sdb, raw := tinyShardedWorld(tb)
	m, err := DecodeManifest(bytes.NewReader(raw))
	if err != nil {
		tb.Fatal(err)
	}
	parts := make([]*store.DB, sdb.K())
	for i := range parts {
		parts[i] = sdb.Part(i)
	}
	return m, parts
}

func TestManifestV3RoundTrip(t *testing.T) {
	m, parts := tinyManifestAndParts(t)
	if len(m.CountryBMs) != len(parts) || len(m.EventCountryBMs) != len(parts) || len(m.QuarterBMs) != len(parts) {
		t.Fatalf("value bitmap sections %d/%d/%d, want one per shard (%d)",
			len(m.CountryBMs), len(m.EventCountryBMs), len(m.QuarterBMs), len(parts))
	}
	// Every shard holds mention rows, so at least the quarter bitmaps must
	// be non-empty; empty country sections would mean the builder skipped
	// the value-bitmap pass entirely.
	for i, sb := range m.QuarterBMs {
		if len(sb.Entries) == 0 {
			t.Fatalf("shard %d: no quarter bitmaps persisted", i)
		}
	}
	for _, sb := range m.CountryBMs {
		if len(sb.Entries) == 0 {
			t.Fatalf("shard %d: no country bitmaps persisted", sb.Shard)
		}
	}
	if _, err := AssembleSharded(m, parts); err != nil {
		t.Fatalf("assembling v3 manifest: %v", err)
	}
}

// TestManifestOtherVersionsRejected: the decoder must refuse versions it
// does not read — the retired v1/v2 layouts nothing writes any more and
// anything from the future — rather than silently skipping sections. The
// version byte is not checksummed, so the test patches it in place.
func TestManifestOtherVersionsRejected(t *testing.T) {
	_, raw := tinyShardedWorld(t)
	for _, v := range []byte{1, 2, manifestVersion + 1} {
		mut := bytes.Clone(raw)
		mut[4] = v
		_, err := DecodeManifest(bytes.NewReader(mut))
		if err == nil || !strings.Contains(err.Error(), "unsupported manifest version") {
			t.Fatalf("version %d: got %v, want an unsupported-version error", v, err)
		}
	}
}

// TestManifestValueBitmapCrossCheck: a persisted value bitmap that
// disagrees with the loaded part data must fail assembly, for each of the
// three new section kinds.
func TestManifestValueBitmapCrossCheck(t *testing.T) {
	corruptions := []struct {
		name   string
		mutate func(m *Manifest)
	}{
		{"country", func(m *Manifest) { m.CountryBMs[0].Entries[0].Data = []byte{0xde, 0xad} }},
		{"event-country", func(m *Manifest) { m.EventCountryBMs[0].Entries[0].Data = []byte{0xde, 0xad} }},
		{"quarter", func(m *Manifest) { m.QuarterBMs[0].Entries[0].Data = []byte{0xde, 0xad} }},
		{"country-key-range", func(m *Manifest) { m.CountryBMs[0].Entries[0].Source = 1 << 20 }},
		{"quarter-key-range", func(m *Manifest) { m.QuarterBMs[0].Entries[0].Source = 1 << 20 }},
		{"country-dup-key", func(m *Manifest) {
			e := &m.CountryBMs[0].Entries
			*e = append(*e, (*e)[0])
		}},
		{"country-shard-range", func(m *Manifest) { m.CountryBMs[0].Shard = 99 }},
	}
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			m, parts := tinyManifestAndParts(t)
			c.mutate(m)
			if _, err := AssembleSharded(m, parts); err == nil {
				t.Fatalf("%s corruption assembled cleanly", c.name)
			}
		})
	}
}

// TestEncodeManifestFileEqualsBuffer: the buffered encoder writes a file
// byte for byte what it writes into memory, for a manifest with a section
// larger than its buffer too.
func TestEncodeManifestFileEqualsBuffer(t *testing.T) {
	m, _ := tinyManifestAndParts(t)
	m.Sources = append(m.Sources, strings.Repeat("x", 100<<10))
	var want bytes.Buffer
	if err := EncodeManifest(&want, m); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.gdsm")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := EncodeManifest(f, m); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("file holds %d bytes, buffer %d; contents differ", len(got), want.Len())
	}
}

// TestManifestDuplicateValueSectionRejected: two value-bitmap sections for
// the same shard and kind must be a decode error, mirroring the source
// bitmap rule.
func TestManifestDuplicateValueSectionRejected(t *testing.T) {
	m, _ := tinyManifestAndParts(t)
	m.QuarterBMs = append(m.QuarterBMs, m.QuarterBMs[0])
	var buf bytes.Buffer
	if err := EncodeManifest(&buf, m); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeManifest(&buf); err == nil {
		t.Fatal("decoder accepted duplicate quarter bitmap sections")
	}
}
