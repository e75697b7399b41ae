package gen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"strconv"
	"testing"

	"gdeltmine/internal/gdelt"
)

// goldenDigests pins Generate's output byte for byte: the SHA-256 of the
// compact events and mentions (every field, little-endian, in corpus
// order) and of the raw rows the writer materializes from them (every
// EventRecord, then every MentionRecord followed by its GKGRecord, as
// TSV). Any change to generation, to the record constructors or to the
// row codec moves a digest.
var goldenDigests = map[string]struct{ events, mentions, rows string }{
	"small/0": {
		"e8bdb0011a858ab3f2b0d223fec942652e58bc2e11bcdcd28affdce3716d0c77",
		"d445b9362f0b7327548807c86a19bbe55c3839fa9a27b6473c3e070089e320df",
		"3111ca05e81c40979f2846dc4c7b969cd33ac0e2d154c499621f4e8049d060e1",
	},
	"small/7": {
		"c2fe92430a621fce43ea6930cbddc36d433fbf7eb2f2ea6b8e72d57397ab9073",
		"83bb376a999a1cfbed974b92af90d8002f4845efe9b63b8d1e5b903a5f31c4ca",
		"e3f3d3d5949bc73ed4fdeee73d03154d7e6f11ce1f035a87b06278b985cd126e",
	},
	"bench/0": {
		"fddab489107bce4412ff92a455102754230c1f94e19f170754284ad4b2f07f76",
		"ad9bd45a6563f87270af26906743c410f0f0755744bce2dfc7005894740001ad",
		"563f850e04036b7a396167f4f5968c4d9c11ed966f73b89ac3f44bbb94b45a77",
	},
	"bench/7": {
		"36ea28407e0ed4dad4ee4ced4ddfc29ec0a694672e4934db703c20c05b47479b",
		"1ce645ee47d5da7899d0848f375f0438603f14efb235b672fe2d292fdb8ec07f",
		"660bc76767180b791f8e9372ca6bc8e4793a2b9671de98b19a4b5f5633b6d839",
	},
}

func corpusDigests(c *Corpus) (events, mentions, rows string) {
	sum := func(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }
	h := sha256.New()
	if err := binary.Write(h, binary.LittleEndian, c.Events); err != nil {
		panic(err)
	}
	events = sum(h)
	h.Reset()
	if err := binary.Write(h, binary.LittleEndian, c.Mentions); err != nil {
		panic(err)
	}
	mentions = sum(h)
	h.Reset()
	var buf []byte
	for i := range c.Events {
		rec := c.EventRecord(i)
		buf = append(gdelt.AppendEventRow(buf[:0], &rec), '\n')
		h.Write(buf)
	}
	for j := range c.Mentions {
		mn := c.MentionRecord(j)
		buf = append(gdelt.AppendMentionRow(buf[:0], &mn), '\n')
		h.Write(buf)
		g := c.GKGRecord(j)
		buf = append(gdelt.AppendGKGRow(buf[:0], &g), '\n')
		h.Write(buf)
	}
	return events, mentions, sum(h)
}

func TestGenerateGoldenDigests(t *testing.T) {
	for _, p := range []struct {
		name   string
		preset func() Config
	}{{"small", Small}, {"bench", Bench}} {
		for _, seed := range []int64{0, 7} {
			cfg := p.preset()
			cfg.Seed = seed
			key := p.name + "/" + strconv.FormatInt(seed, 10)
			t.Run(key, func(t *testing.T) {
				c, err := Generate(cfg)
				if err != nil {
					t.Fatal(err)
				}
				ev, mn, rows := corpusDigests(c)
				want := goldenDigests[key]
				if ev != want.events || mn != want.mentions || rows != want.rows {
					t.Fatalf("digests moved:\n got {%q, %q, %q}\nwant {%q, %q, %q}",
						ev, mn, rows, want.events, want.mentions, want.rows)
				}
			})
		}
	}
}
