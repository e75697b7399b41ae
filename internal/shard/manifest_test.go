package shard

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"gdeltmine/internal/binfmt"
	"gdeltmine/internal/store"
)

// Version 5 manifest coverage: entries round-trip with their part digests,
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
		t.Fatalf("assembling v5 manifest: %v", err)
	}

	// A chunk ledger round-trips, irregular runs included; an empty one
	// writes no section, so a manifest without ticks keeps the bytes an
	// earlier build wrote (the checked-in seed corpus holds one).
	m.Ledger = []int32{0, 96, 192, 288, 500, 501, 502, 900, m.Meta.Intervals - 1}
	var withLedger bytes.Buffer
	if err := EncodeManifest(&withLedger, m); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeManifest(bytes.NewReader(withLedger.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(back.Ledger, m.Ledger) {
		t.Fatalf("ledger %v decoded as %v", m.Ledger, back.Ledger)
	}
	old := string(fuzzSeed(t, "seed-v5-valid"))
	pre, err := DecodeManifest(strings.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	var again2 bytes.Buffer
	if err := EncodeManifest(&again2, pre); err != nil {
		t.Fatal(err)
	}
	if pre.Ledger != nil || again2.String() != old {
		t.Fatal("a manifest without a ledger no longer re-encodes to its original bytes")
	}
}

// fuzzSeed returns the bytes of a checked-in FuzzManifestDecode seed.
func fuzzSeed(t *testing.T, name string) []byte {
	t.Helper()
	seed, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzManifestDecode", name))
	if err != nil {
		t.Fatal(err)
	}
	data, err := strconv.Unquote(strings.TrimSuffix(strings.SplitN(string(seed), "[]byte(", 2)[1], ")\n"))
	if err != nil {
		t.Fatal(err)
	}
	return []byte(data)
}

// ledgerManifest returns the tiny world's manifest with a ledger section
// holding payload spliced in front of the end section, checksum intact.
func ledgerManifest(tb testing.TB, payload []byte) []byte {
	tb.Helper()
	m, _ := tinyManifestAndParts(tb)
	var raw bytes.Buffer
	if err := EncodeManifest(&raw, m); err != nil {
		tb.Fatal(err)
	}
	return spliced(raw.Bytes(), raw.Len()-endSectionLen, tagLedger, payload)
}

// endSectionLen is the size of the end section: its tag, a zero payload
// length and the checksum.
const endSectionLen = 4 + 8 + 4

// spliced returns raw with a section of tag and payload inserted at off.
func spliced(raw []byte, off int, tag [4]byte, payload []byte) []byte {
	var out bytes.Buffer
	out.Write(raw[:off])
	binfmt.WriteSection(&out, tag, payload)
	out.Write(raw[off:])
	return out.Bytes()
}

// ledgerRuns encodes runs of (first mark, step, marks) as a ledger payload.
func ledgerRuns(runs ...[3]uint64) []byte {
	out := binary.AppendUvarint(nil, uint64(len(runs)))
	for _, r := range runs {
		for _, v := range r {
			out = binary.AppendUvarint(out, v)
		}
	}
	return out
}

// malformedLedger is a ledger payload the decoder must refuse with an
// error containing want.
type malformedLedger struct {
	name, want string
	payload    []byte
}

func malformedLedgers(intervals uint64) []malformedLedger {
	return []malformedLedger{
		{"unsorted", "starts before", ledgerRuns([3]uint64{96, 96, 3}, [3]uint64{0, 0, 1})},
		{"interleaved", "overlaps", ledgerRuns([3]uint64{0, 96, 3}, [3]uint64{100, 1, 2})},
		{"shared-mark", "overlaps", ledgerRuns([3]uint64{0, 10, 2}, [3]uint64{10, 0, 1})},
		{"past-end", "span", ledgerRuns([3]uint64{intervals - 10, 5, 3})},
		{"at-end", "span", ledgerRuns([3]uint64{intervals, 0, 1})},
		{"huge-step", "span", ledgerRuns([3]uint64{0, 1 << 40, 2})},
		{"empty-run", "empty", ledgerRuns([3]uint64{0, 1, 0})},
		{"zero-step", "repeats", ledgerRuns([3]uint64{5, 0, 2})},
		{"truncated", "truncated", ledgerRuns([3]uint64{0, 1, 2})[:3]},
		{"run-count", "exceeds", binary.AppendUvarint(nil, 1<<40)},
	}
}

// TestManifestLedgerRejectsMalformedRuns: unsorted, overlapping,
// out-of-span, empty and repeating runs, a truncated payload, a ledger
// before the meta section and a second ledger section are decode errors.
func TestManifestLedgerRejectsMalformedRuns(t *testing.T) {
	m, _ := tinyManifestAndParts(t)
	for _, c := range malformedLedgers(uint64(m.Meta.Intervals)) {
		_, err := DecodeManifest(bytes.NewReader(ledgerManifest(t, c.payload)))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
	valid := ledgerRuns([3]uint64{0, 96, 3})
	if _, err := DecodeManifest(bytes.NewReader(ledgerManifest(t, valid))); err != nil {
		t.Fatalf("valid ledger refused: %v", err)
	}
	once := ledgerManifest(t, valid)
	twice := spliced(once, len(once)-endSectionLen, tagLedger, valid)
	if _, err := DecodeManifest(bytes.NewReader(twice)); err == nil || !strings.Contains(err.Error(), "duplicate ledger") {
		t.Errorf("second ledger section: got %v", err)
	}
	early := spliced(once, 5, tagLedger, valid)
	if _, err := DecodeManifest(bytes.NewReader(early)); err == nil || !strings.Contains(err.Error(), "before meta") {
		t.Errorf("ledger before meta: got %v", err)
	}
}

// TestManifestOtherVersionsRejected: the decoder must refuse versions it
// does not read — the retired v1–v4 layouts nothing writes any more and
// anything from the future — rather than silently skipping sections, and
// say to re-run gdeltconvert -shards. The version byte is not
// checksummed, so the test patches it in place.
func TestManifestOtherVersionsRejected(t *testing.T) {
	_, raw := tinyShardedWorld(t)
	for _, v := range []byte{1, 2, 3, 4, manifestVersion + 1} {
		mut := bytes.Clone(raw)
		mut[4] = v
		_, err := DecodeManifest(bytes.NewReader(mut))
		if err == nil || !strings.Contains(err.Error(), "unsupported manifest version") ||
			!strings.Contains(err.Error(), "re-run gdeltconvert -shards") {
			t.Fatalf("version %d: got %v, want an unsupported-version error with the re-run hint", v, err)
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
	m.Entries[0].File = strings.Repeat("x", 100<<10)
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

// TestManifestDuplicateSectionRejected: a second meta section, an end
// section carrying a payload, and sections this version does not write —
// the source and theme lists of version 4 among them — are decode errors,
// each spliced in front of the end section with a valid checksum.
func TestManifestDuplicateSectionRejected(t *testing.T) {
	m, _ := tinyManifestAndParts(t)
	var raw bytes.Buffer
	if err := EncodeManifest(&raw, m); err != nil {
		t.Fatal(err)
	}
	meta := binary.AppendVarint(binary.AppendVarint(nil, int64(m.Meta.Start)), int64(m.Meta.Intervals))
	for _, sec := range []struct {
		tag     [4]byte
		payload []byte
	}{
		{tagMeta, meta},
		{tagEnd, []byte{0}},
		{[4]byte{'S', 'R', 'C', 'S'}, binfmt.AppendString([]byte{1}, "a.example")},
		{[4]byte{'T', 'H', 'M', 'S'}, nil},
	} {
		if _, err := DecodeManifest(bytes.NewReader(spliced(raw.Bytes(), raw.Len()-endSectionLen, sec.tag, sec.payload))); err == nil {
			t.Fatalf("section %q accepted", sec.tag)
		}
	}
}

// recoded returns part p re-encoded over the source and theme dictionaries
// srcs and themes, which must hold every name p references: the same rows,
// other ids.
func recoded(t *testing.T, p *store.DB, srcs, themes *store.Dictionary) *store.DB {
	t.Helper()
	mn := p.Mentions
	mn.Source = make([]int32, len(p.Mentions.Source))
	for r, s := range p.Mentions.Source {
		mn.Source[r] = srcs.Lookup(p.Sources.Name(s))
	}
	q, err := store.AssembleDB(p.Meta, srcs, p.Events, mn, p.Report)
	if err != nil {
		t.Fatal(err)
	}
	ptr := []int64{0}
	var idx []int32
	for _, name := range themes.Names() {
		if id := p.GKG.Themes.Lookup(name); id >= 0 {
			idx = append(idx, p.GKG.ThemeRows(id)...)
		}
		ptr = append(ptr, int64(len(idx)))
	}
	if err := store.AssembleGKG(q, p.GKG.Table, themes, ptr, idx); err != nil {
		t.Fatal(err)
	}
	return q
}

// TestOldLayoutsRefused: a log directory whose part was encoded against a
// dictionary that is not a prefix of the tail's, or in an older part
// format version, must fail OpenLog with an error naming the part and
// saying to re-run gdeltconvert -shards — never load through a remap, never
// panic. Each tampered part is rewritten with its manifest digest
// recomputed, so only the dictionary or version check can catch it: a
// layout written before parts shared the world's ids (every part over
// dictionaries of its own, interned in row order), a non-tail part whose
// source dictionary has two names swapped, a tail whose theme dictionary
// does, and non-tail parts whose header says format version 1 or 2 (the
// error must name the part's version and this build's). The tail's
// dictionaries are the world's, so where the tail is rewritten the first
// part off its id space is the one named. A .gdmb file of version 2 is
// refused the same way by binfmt.ReadFile, and a version 4 manifest by
// OpenLog.
func TestOldLayoutsRefused(t *testing.T) {
	sdb, _ := tinyShardedWorld(t)
	rowOrder := func(p *store.DB) (srcs, themes *store.Dictionary) {
		srcs, themes = store.NewDictionary(), store.NewDictionary()
		for _, s := range p.Mentions.Source {
			srcs.Intern(p.Sources.Name(s))
		}
		var carried []int32
		for th := range int32(p.GKG.Themes.Len()) {
			if len(p.GKG.ThemeRows(th)) > 0 {
				carried = append(carried, th)
			}
		}
		slices.SortStableFunc(carried, func(a, b int32) int { return cmp.Compare(p.GKG.ThemeRows(a)[0], p.GKG.ThemeRows(b)[0]) })
		for _, th := range carried {
			themes.Intern(p.GKG.Themes.Name(th))
		}
		return srcs, themes
	}
	swapped := func(t *testing.T, d *store.Dictionary) *store.Dictionary {
		names := slices.Clone(d.Names())
		names[0], names[1] = names[1], names[0]
		out, err := store.FromNames(names)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	ti := sdb.K() - 1
	for _, tc := range []struct {
		name  string
		parts []int // the parts rewritten
		named int   // the part the error must name
		dicts func(t *testing.T, p *store.DB) (srcs, themes *store.Dictionary)
		ver   byte // rewrite the part's format version to ver, unless 0
	}{
		{"local-dictionaries", []int{0, 1, ti}, 0, func(_ *testing.T, p *store.DB) (*store.Dictionary, *store.Dictionary) {
			return rowOrder(p)
		}, 0},
		{"permuted-sources", []int{1}, 1, func(t *testing.T, p *store.DB) (*store.Dictionary, *store.Dictionary) {
			return swapped(t, p.Sources), p.GKG.Themes
		}, 0},
		{"permuted-tail-themes", []int{ti}, 0, func(t *testing.T, p *store.DB) (*store.Dictionary, *store.Dictionary) {
			return p.Sources, swapped(t, p.GKG.Themes)
		}, 0},
		{"format-version-1", []int{1}, 1, func(_ *testing.T, p *store.DB) (*store.Dictionary, *store.Dictionary) {
			return p.Sources, p.GKG.Themes
		}, 1},
		{"format-version-2", []int{1}, 1, func(_ *testing.T, p *store.DB) (*store.Dictionary, *store.Dictionary) {
			return p.Sources, p.GKG.Themes
		}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if _, err := CreateLog(dir, sdb); err != nil {
				t.Fatal(err)
			}
			mpath := filepath.Join(dir, LogManifestName)
			raw, err := os.ReadFile(mpath)
			if err != nil {
				t.Fatal(err)
			}
			m, err := DecodeManifest(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			for _, i := range tc.parts {
				p := sdb.Part(i)
				srcs, themes := tc.dicts(t, p)
				var buf bytes.Buffer
				if err := binfmt.Write(&buf, recoded(t, p, srcs, themes)); err != nil {
					t.Fatal(err)
				}
				if tc.ver != 0 {
					buf.Bytes()[4] = tc.ver
				}
				if err := os.WriteFile(filepath.Join(dir, m.Entries[i].File), buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				m.Entries[i].Digest = digestOf(buf.Bytes())
			}
			var mbuf bytes.Buffer
			if err := EncodeManifest(&mbuf, m); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(mpath, mbuf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = OpenLog(dir)
			if err == nil {
				t.Fatal("a part off the world's id space loaded")
			}
			if file := m.Entries[tc.named].File; !strings.Contains(err.Error(), file) {
				t.Errorf("error %q does not name part %s", err, file)
			}
			if !strings.Contains(err.Error(), "re-run gdeltconvert -shards") {
				t.Errorf("error %q does not say to re-run gdeltconvert -shards", err)
			}
			if tc.ver != 0 {
				checkNamesVersions(t, err, int(tc.ver))
			}
		})
	}
	t.Run("gdmb-version-2", func(t *testing.T) {
		var buf bytes.Buffer
		if err := binfmt.Write(&buf, sdb.Part(0)); err != nil {
			t.Fatal(err)
		}
		buf.Bytes()[4] = 2
		path := filepath.Join(t.TempDir(), "old.gdmb")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := binfmt.ReadFile(path)
		if err == nil {
			t.Fatal("a version-2 .gdmb loaded")
		}
		if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "re-run gdeltconvert") {
			t.Errorf("error %q does not name %s and say to re-run gdeltconvert", err, path)
		}
		checkNamesVersions(t, err, 2)
	})
	t.Run("manifest-version-4", func(t *testing.T) {
		dir := t.TempDir()
		if _, err := CreateLog(dir, sdb); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, LogManifestName), fuzzSeed(t, "seed-v4-valid"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := OpenLog(dir)
		if err == nil {
			t.Fatal("a version 4 manifest loaded")
		}
		for _, want := range []string{"manifest version 4", "re-run gdeltconvert -shards"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not contain %q", err, want)
			}
		}
	})
}

// checkNamesVersions: err names the old format version v and the one this
// build reads.
func checkNamesVersions(t *testing.T, err error, v int) {
	t.Helper()
	for _, want := range []string{"version " + strconv.Itoa(v) + ";", "reads " + strconv.Itoa(binfmt.Version)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not contain %q", err, want)
		}
	}
}
