package shard

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gdeltmine/internal/binfmt"
	"gdeltmine/internal/store"
)

// Version 4 manifest coverage: entries round-trip with their part digests,
// every other version is rejected, and the digest check in OpenLog refuses
// a tampered part before decoding it. See DESIGN.md §13.

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

func TestManifestRoundTrip(t *testing.T) {
	sdb, raw := tinyShardedWorld(t)
	m, err := DecodeManifest(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	parts := sdb.parts
	for i, e := range m.Entries {
		var buf bytes.Buffer
		if err := binfmt.Write(&buf, parts[i]); err != nil {
			t.Fatal(err)
		}
		if want := digestOf(buf.Bytes()); e.Digest != want {
			t.Fatalf("entry %d digest %+v, want %+v", i, e.Digest, want)
		}
		if e.Lo != sdb.bounds[i] || e.Hi != sdb.bounds[i+1] {
			t.Fatalf("entry %d range [%d, %d), want [%d, %d)", i, e.Lo, e.Hi, sdb.bounds[i], sdb.bounds[i+1])
		}
	}
	var again bytes.Buffer
	if err := EncodeManifest(&again, m); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), raw) {
		t.Fatal("re-encoding a decoded manifest changed its bytes")
	}
	if _, err := AssembleSharded(m, parts); err != nil {
		t.Fatalf("assembling v4 manifest: %v", err)
	}
}

// TestManifestOtherVersionsRejected: the decoder must refuse versions it
// does not read — the retired v1–v3 layouts nothing writes any more and
// anything from the future — rather than silently skipping sections. The
// version byte is not checksummed, so the test patches it in place.
func TestManifestOtherVersionsRejected(t *testing.T) {
	_, raw := tinyShardedWorld(t)
	for _, v := range []byte{1, 2, 3, manifestVersion + 1} {
		mut := bytes.Clone(raw)
		mut[4] = v
		_, err := DecodeManifest(bytes.NewReader(mut))
		if err == nil || !strings.Contains(err.Error(), "unsupported manifest version") {
			t.Fatalf("version %d: got %v, want an unsupported-version error", v, err)
		}
	}
}

// TestManifestDigestCatchesTampering: a part file that is not byte for byte
// the one the manifest recorded must fail OpenLog with an error naming the
// part — never load, never panic — whether the change
// would have decoded cleanly (a rewritten Source value with the binfmt
// section CRC recomputed, two valid parts swapped) or not (a truncated
// part), and when the manifest's entry is what is wrong.
func TestManifestDigestCatchesTampering(t *testing.T) {
	sdb, _ := tinyShardedWorld(t)
	create := func(t *testing.T, dir string) (manifest string, parts []string) {
		if _, err := CreateLog(dir, sdb); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < sdb.K(); i++ {
			parts = append(parts, filepath.Join(dir, partFileName(1, i)))
		}
		return filepath.Join(dir, LogManifestName), parts
	}
	load := func(dir string) error {
		_, err := OpenLog(dir)
		return err
	}
	tampers := []struct {
		name   string
		part   int // the part the error must name
		tamper func(t *testing.T, manifest string, parts []string)
	}{
		{"source-rewritten", 0, func(t *testing.T, _ string, parts []string) {
			p, err := binfmt.ReadFile(parts[0])
			if err != nil {
				t.Fatal(err)
			}
			p.Mentions.Source[0] = (p.Mentions.Source[0] + 1) % int32(p.Sources.Len())
			if err := binfmt.WriteFile(parts[0], p); err != nil {
				t.Fatal(err)
			}
			if _, err := binfmt.ReadFile(parts[0]); err != nil {
				t.Fatalf("the rewritten part must still decode, or the digest is not what catches it: %v", err)
			}
		}},
		{"swapped", 0, func(t *testing.T, _ string, parts []string) {
			tmp := parts[0] + ".swap"
			for _, mv := range [][2]string{{parts[0], tmp}, {parts[1], parts[0]}, {tmp, parts[1]}} {
				if err := os.Rename(mv[0], mv[1]); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"truncated", 1, func(t *testing.T, _ string, parts []string) {
			fi, err := os.Stat(parts[1])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(parts[1], fi.Size()/2); err != nil {
				t.Fatal(err)
			}
		}},
		{"wrong-entry-size", 2, func(t *testing.T, manifest string, _ []string) {
			raw, err := os.ReadFile(manifest)
			if err != nil {
				t.Fatal(err)
			}
			m, err := DecodeManifest(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			m.Entries[2].Size++
			var buf bytes.Buffer
			if err := EncodeManifest(&buf, m); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(manifest, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range tampers {
		t.Run("OpenLog/"+tc.name, func(t *testing.T) {
			dir := t.TempDir()
			manifest, parts := create(t, dir)
			if err := load(dir); err != nil {
				t.Fatalf("untampered layout: %v", err)
			}
			tc.tamper(t, manifest, parts)
			err := load(dir)
			if err == nil {
				t.Fatal("tampered layout loaded")
			}
			if name := filepath.Base(parts[tc.part]); !strings.Contains(err.Error(), name) {
				t.Fatalf("error %q does not name part %s", err, name)
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

// TestManifestDuplicateSectionRejected: a second sources or themes section,
// and a retired v3 bitmap section (0x05–0x08), are decode errors, each
// spliced in front of the end section with a valid checksum.
func TestManifestDuplicateSectionRejected(t *testing.T) {
	m, _ := tinyManifestAndParts(t)
	var raw bytes.Buffer
	if err := EncodeManifest(&raw, m); err != nil {
		t.Fatal(err)
	}
	end := raw.Len() - 6 // tag, zero length, four checksum bytes
	for _, sec := range []struct {
		tag     byte
		payload []byte
	}{
		{secSources, appendStrings(nil, m.Sources)},
		{secThemes, appendStrings(nil, m.Themes)},
		{0x05, nil}, {0x06, nil}, {0x07, nil}, {0x08, nil},
	} {
		var spliced bytes.Buffer
		spliced.Write(raw.Bytes()[:end])
		w := bufio.NewWriter(&spliced)
		writeSection(w, sec.tag, sec.payload)
		w.Flush()
		spliced.Write(raw.Bytes()[end:])
		if _, err := DecodeManifest(&spliced); err == nil {
			t.Fatalf("section 0x%02x accepted", sec.tag)
		}
	}
}
