package convert

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"testing"

	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/report"
)

// rawGoldenDigests pins FromRawDir over the raw files gen.WriteRaw writes,
// byte for byte: the SHA-256 of the binary format of the built store, and
// of the Table II text gdeltconvert prints followed by every retained
// defect example, one a line. Any change to the chunk parser, the builder's
// row rules or the defect texts moves a digest.
var rawGoldenDigests = map[string]struct{ binfmt, tableII string }{
	"small/0": {
		"62ffe8f10f5acacb196003ff1fb95def48428c1a5fbf1a33708bd096a85c16cc",
		"f80b27ce46cc280534174b292785c02cd776800191b94487d01184dc5837039a",
	},
	"small/7": {
		"145bea0c8d8e7e6ab43a4a4cfa142f1da77ac3cb8c63917211207a38d0b62c46",
		"8913f91795e0c57b8758713b72a0fc52dd8f2f23d7071a407c2293e76bb62e0b",
	},
}

func TestFromRawDirGoldenDigests(t *testing.T) {
	for _, seed := range []int64{0, 7} {
		key := "small/" + strconv.FormatInt(seed, 10)
		t.Run(key, func(t *testing.T) {
			cfg := gen.Small()
			cfg.Seed = seed
			c, err := gen.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if _, err := gen.WriteRaw(c, dir); err != nil {
				t.Fatal(err)
			}
			res, err := FromRawDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			text := report.TableII(res.DB.Report)
			for cl := range res.DB.Report.Examples {
				for _, ex := range res.DB.Report.Examples[cl] {
					text += gdelt.DefectClass(cl).String() + ": " + ex + "\n"
				}
			}
			sum := func(b []byte) string { h := sha256.Sum256(b); return hex.EncodeToString(h[:]) }
			gotBin, gotTable := sum(encode(t, res.DB)), sum([]byte(text))
			want := rawGoldenDigests[key]
			if gotBin != want.binfmt || gotTable != want.tableII {
				t.Fatalf("digests moved:\n got {%q, %q}\nwant {%q, %q}", gotBin, gotTable, want.binfmt, want.tableII)
			}
		})
	}
}
