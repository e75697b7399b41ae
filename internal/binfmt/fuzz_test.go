package binfmt

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"gdeltmine/internal/convert"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/store"
)

// tinyDBBytes serializes a miniature but fully-featured world (GKG section
// included), small enough to keep the fuzz corpus light while exercising
// every section codec.
func tinyDBBytes(tb testing.TB) []byte {
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
	var buf bytes.Buffer
	if err := Write(&buf, res.DB); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// fuzzSeeds are the interesting starting points: a fully valid database,
// truncations at section boundaries and mid-payload, a corrupt header, bit
// flips that land in length fields, varint streams, and CRCs, and the
// damaged section tags of damagedTags. Their
// names carry the format version they were written in, so the checked-in
// seeds of older versions stay beside the current ones.
func fuzzSeeds(tb testing.TB) map[string][]byte {
	valid := tinyDBBytes(tb)
	v := "v" + strconv.Itoa(Version) + "-"
	seeds := map[string][]byte{
		v + "valid":        valid,
		v + "truncated":    valid[:len(valid)/2],
		v + "header-only":  valid[:8],
		v + "short-header": []byte("GDMB"),
		v + "bad-magic":    append([]byte("XXXX"), valid[4:16]...),
	}
	for _, off := range []int{8, 20, len(valid) / 3, 2 * len(valid) / 3, len(valid) - 5} {
		mut := bytes.Clone(valid)
		mut[off] ^= 0xff
		seeds[v+"flip-"+strconv.Itoa(off)] = mut
	}
	for name, d := range damagedTags(tb, valid) {
		seeds[v+name] = d.data
	}
	return seeds
}

// FuzzRead asserts the loader's contract on arbitrary bytes: it either
// returns an error or a database whose invariants hold — it never panics,
// even on corrupted section lengths, counts, or cross-table references.
// The checked-in corpus under testdata/fuzz/FuzzRead replays known-
// interesting inputs on every plain `go test` run.
func FuzzRead(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejected input; the contract is only "no panic"
		}
		checkLoaded(t, db)
	})
}

// checkLoaded asserts a database the loader accepted is safe to hand to the
// engine: all invariants hold and it survives a re-encode round trip.
func checkLoaded(t *testing.T, db *store.DB) {
	t.Helper()
	if err := db.Validate(); err != nil {
		t.Fatalf("accepted database fails validation: %v", err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, db); err != nil {
		t.Fatalf("re-encoding accepted database: %v", err)
	}
	if _, err := Read(&buf); err != nil {
		t.Fatalf("re-decoding accepted database: %v", err)
	}
}

// TestWriteFuzzSeedCorpus regenerates the checked-in seed corpus. It is a
// no-op unless GDELT_UPDATE_FUZZ_CORPUS=1 is set, the same pattern as a
// golden-file -update flag.
func TestWriteFuzzSeedCorpus(t *testing.T) {
	if os.Getenv("GDELT_UPDATE_FUZZ_CORPUS") == "" {
		t.Skip("set GDELT_UPDATE_FUZZ_CORPUS=1 to regenerate the corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzRead")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range fuzzSeeds(t) {
		content := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, "seed-"+name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// readSeed returns the bytes of a checked-in FuzzRead corpus file.
func readSeed(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzRead", name))
	if err != nil {
		t.Fatal(err)
	}
	quoted, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
	if !ok {
		t.Fatalf("%s is not a fuzz corpus file", name)
	}
	data, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
	if err != nil {
		t.Fatal(err)
	}
	return []byte(data)
}

// checkRefused writes data, a valid database of format version v, to a
// .gdmb file: ReadFile must refuse it with ErrOldFormat, naming the file,
// its version and this build's, and saying to re-run gdeltconvert.
func checkRefused(t *testing.T, data []byte, v int) {
	t.Helper()
	if got := int(data[4]); got != v {
		t.Fatalf("the seed holds version %d, want %d", got, v)
	}
	path := filepath.Join(t.TempDir(), "old.gdmb")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ReadFile(path)
	if !errors.Is(err, ErrOldFormat) {
		t.Fatalf("version-%d file: err %v, want ErrOldFormat", v, err)
	}
	for _, want := range []string{path, fmt.Sprintf("version %d;", v), fmt.Sprintf("reads %d", Version), "re-run gdeltconvert"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not contain %q", err, want)
		}
	}
}

// TestVersion1Refused: the corpus keeps one version-1 file, a valid
// database as the first format wrote it. ReadFile must refuse it.
func TestVersion1Refused(t *testing.T) {
	checkRefused(t, readSeed(t, "seed-v1-valid"), 1)
}

// TestVersion2Refused: seed-valid is a valid database as format version 2
// wrote it (row-major GKG theme lists and persons). ReadFile must refuse
// it.
func TestVersion2Refused(t *testing.T) {
	checkRefused(t, readSeed(t, "seed-valid"), 2)
}
