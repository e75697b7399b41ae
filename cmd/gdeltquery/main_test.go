package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"gdeltmine/internal/binfmt"
	"gdeltmine/internal/convert"
	"gdeltmine/internal/gen"
)

// TestMain lets a test re-run this binary as gdeltquery: with
// GDELTQUERY_RUN_MAIN=1 set, the process is the command itself.
func TestMain(m *testing.M) {
	if os.Getenv("GDELTQUERY_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// tinyDB writes a small generated world as a .gdmb and returns its path.
func tinyDB(t *testing.T) string {
	t.Helper()
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
	}
	c, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := convert.FromCorpus(c)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tiny.gdmb")
	if err := binfmt.WriteFile(path, res.DB); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestQueryTimeNamesRunWorkers pins the timing line to the worker count
// the query ran with: -param workers=N overrides -workers, and the line
// says so.
func TestQueryTimeNamesRunWorkers(t *testing.T) {
	db := tinyDB(t)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-db", db, "-workers", "1", "count", "-param", "workers=2"}, "(workers=2)"},
		{[]string{"-db", db, "-workers", "1", "count"}, "(workers=1)"},
	} {
		cmd := exec.Command(os.Args[0], tc.args...)
		cmd.Env = append(os.Environ(), "GDELTQUERY_RUN_MAIN=1")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("gdeltquery %v: %v\n%s", tc.args, err, out)
		}
		if !strings.Contains(string(out), "query time: ") || !strings.Contains(string(out), tc.want) {
			t.Errorf("gdeltquery %v printed\n%s\nwant a query time line with %s", tc.args, out, tc.want)
		}
	}
}
