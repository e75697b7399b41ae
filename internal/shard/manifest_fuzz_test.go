package shard

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"gdeltmine/internal/binfmt"
	"gdeltmine/internal/convert"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/store"
)

// tinyShardedWorld builds a miniature sharded DB (GKG included) plus its
// encoded manifest — small enough to keep the fuzz corpus light while
// exercising every manifest section.
func tinyShardedWorld(tb testing.TB) (*DB, []byte) {
	tb.Helper()
	cfg := gen.Config{
		Seed:             7,
		Start:            20150218000000,
		End:              20150310000000,
		Sources:          20,
		EventsPerDay:     3,
		MediaGroupSize:   5,
		HeadlineEvents:   1,
		UntaggedFraction: 0.1,
		PopularityAlpha:  2.2,
		IntervalsPerFile: 96,
		GKG:              true,
	}
	c, err := gen.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := convert.FromCorpus(c)
	if err != nil {
		tb.Fatal(err)
	}
	sdb, err := Split(res.DB, 3)
	if err != nil {
		tb.Fatal(err)
	}
	files := make([]ManifestEntry, sdb.K())
	for i := range files {
		dw := &digestWriter{w: io.Discard}
		if err := binfmt.Write(dw, sdb.Part(i)); err != nil {
			tb.Fatal(err)
		}
		files[i] = ManifestEntry{File: "part" + strconv.Itoa(i), Digest: dw.d}
	}
	m, err := ManifestFromDB(sdb, files)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeManifest(&buf, m); err != nil {
		tb.Fatal(err)
	}
	return sdb, buf.Bytes()
}

// manifestFuzzSeeds are the interesting starting points: a fully valid
// manifest, truncations at the header and mid-section, a corrupt magic,
// bit flips landing in tags, lengths, varints, name bytes, and CRCs, and
// manifests carrying a chunk ledger — a valid one and every malformed run
// shape the decoder refuses.
func manifestFuzzSeeds(tb testing.TB) map[string][]byte {
	_, valid := tinyShardedWorld(tb)
	seeds := map[string][]byte{
		"valid":        valid,
		"truncated":    valid[:len(valid)/2],
		"header-only":  valid[:5],
		"short-header": []byte("GDS"),
		"bad-magic":    append([]byte("XXXX"), valid[4:]...),
	}
	for _, off := range []int{4, 6, len(valid) / 3, 2 * len(valid) / 3, len(valid) - 3} {
		mut := bytes.Clone(valid)
		mut[off] ^= 0xff
		seeds["flip-"+strconv.Itoa(off)] = mut
	}
	seeds["ledger-valid"] = ledgerManifest(tb, ledgerRuns([3]uint64{0, 96, 3}, [3]uint64{500, 1, 3}))
	sdb, _ := tinyShardedWorld(tb)
	for _, c := range malformedLedgers(uint64(sdb.Meta().Intervals)) {
		seeds["ledger-"+c.name] = ledgerManifest(tb, c.payload)
	}
	return seeds
}

// FuzzManifestDecode asserts the manifest decoder's contract on arbitrary
// bytes: DecodeManifest either errors or returns a manifest that (a) is a
// version 4 one, (b) survives an encode/decode round trip and (c) can be
// fed to AssembleSharded without panicking, and holds a ledger of ascending
// marks inside the archive span — corrupt manifests must surface
// as errors, never as crashes, because OpenLog hands attacker-adjacent
// disk bytes straight to this path. The checked-in corpus under
// testdata/fuzz/FuzzManifestDecode replays known-interesting inputs on
// every plain `go test` run: the seed-v4-* files, and the seeds of the
// retired versions 1–3, which (a) makes must-error inputs.
func FuzzManifestDecode(f *testing.F) {
	for _, seed := range manifestFuzzSeeds(f) {
		f.Add(seed)
	}
	sdb, _ := tinyShardedWorld(f)
	parts := make([]*store.DB, sdb.K())
	for i := range parts {
		parts[i] = sdb.Part(i)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(bytes.NewReader(data))
		if err != nil {
			return // rejected input; the contract is only "no panic"
		}
		if data[4] != manifestVersion {
			t.Fatalf("accepted a version %d manifest", data[4])
		}
		for i, iv := range m.Ledger {
			if iv < 0 || iv >= m.Meta.Intervals || (i > 0 && iv <= m.Ledger[i-1]) {
				t.Fatalf("accepted ledger %v: mark %d out of order or outside [0, %d)", m.Ledger, i, m.Meta.Intervals)
			}
		}
		var buf bytes.Buffer
		if err := EncodeManifest(&buf, m); err != nil {
			t.Fatalf("re-encoding accepted manifest: %v", err)
		}
		if _, err := DecodeManifest(&buf); err != nil {
			t.Fatalf("re-decoding accepted manifest: %v", err)
		}
		// Assembly against real part stores must never panic, whatever the
		// manifest claims about entry ranges, dictionaries, or meta.
		if s, err := AssembleSharded(m, parts); err == nil {
			if got := s.EventCount(); got != sdb.EventCount() {
				t.Fatalf("accepted manifest assembled %d events, want %d", got, sdb.EventCount())
			}
		}
	})
}

// TestWriteManifestFuzzSeedCorpus regenerates the checked-in seed corpus.
// It is a no-op unless GDELT_UPDATE_FUZZ_CORPUS=1 is set, the same pattern
// as a golden-file -update flag.
func TestWriteManifestFuzzSeedCorpus(t *testing.T) {
	if os.Getenv("GDELT_UPDATE_FUZZ_CORPUS") == "" {
		t.Skip("set GDELT_UPDATE_FUZZ_CORPUS=1 to regenerate the corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzManifestDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range manifestFuzzSeeds(t) {
		content := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, "seed-v4-"+name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
