package shard

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"gdeltmine/internal/binfmt"
	"gdeltmine/internal/bitmap"
	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/store"
)

// The shard manifest is a small sectioned binary file (magic "GDSM",
// mirroring the GDMB container of internal/binfmt): after the header, each
// section is a tag byte, a uvarint payload length, the payload, and a
// CRC32 (IEEE) of the payload. Sections: one meta, one entry per shard
// (file name + interval range), the global source-name list, and an
// optional global theme-name list. The global dictionaries travel as
// ordered name lists — the local→global remaps are re-derived by name at
// assembly, so there are no index arrays to corrupt. The decoder is
// defensive end to end: every length is bounded before allocation and
// every failure is an error, never a panic (FuzzManifestDecode pins this).

// Magic identifies a shard manifest file.
var Magic = [4]byte{'G', 'D', 'S', 'M'}

// manifestVersion is the one format version this package writes and reads.
// Versions 1 (no bitmap sections) and 2 (source-row bitmaps only) have no
// writer left and are rejected like any unknown version.
const manifestVersion = 3

const (
	secMeta    = 0x01
	secEntry   = 0x02
	secSources = 0x03
	secThemes  = 0x04
	secBitmaps = 0x05
	// Value-bitmap sections (qlang predicate pushdown, DESIGN.md §13): per-shard mention-row bitmaps keyed by publisher
	// country, event country, and calendar quarter.
	secCountryBM   = 0x06
	secEvCountryBM = 0x07
	secQuarterBM   = 0x08
	secEnd         = 0xFF
)

// Decoder allocation caps: far above anything a real manifest holds, low
// enough that a corrupt length cannot balloon memory.
const (
	maxPayload = 1 << 26
	maxEntries = 1 << 16
	maxNames   = 1 << 24
	maxNameLen = 1 << 20
)

// ManifestEntry names one shard file and the interval range it owns.
type ManifestEntry struct {
	File string
	Lo   int32 // first capture interval (inclusive)
	Hi   int32 // last capture interval (exclusive)
}

// BitmapEntry carries one persisted row bitmap of a shard: the bitmap's
// key — a source id in the shard's local dictionary (secBitmaps), a
// country index (secCountryBM, secEvCountryBM) or a quarter index
// (secQuarterBM) — and the canonical codec bytes.
type BitmapEntry struct {
	Source int32
	Data   []byte
}

// ShardBitmaps groups the persisted bitmaps of one shard, keyed by the
// shard's manifest-entry index.
type ShardBitmaps struct {
	Shard   int32
	Entries []BitmapEntry
}

// Manifest describes a sharded layout on disk: the shared dataset
// geometry, the shard files with their interval ranges, the global
// dictionaries as ordered name lists, and per-shard persisted source-row
// bitmaps used as an assembly-time integrity cross-check.
type Manifest struct {
	Meta    store.Meta
	Entries []ManifestEntry
	Sources []string
	Themes  []string // nil when the shards carry no GKG data
	Bitmaps []ShardBitmaps
	// Value-bitmap sections, persisted as integrity cross-checks
	// like Bitmaps. Keys are country indexes (CountryBMs, EventCountryBMs)
	// or quarter indexes (QuarterBMs); only non-empty bitmaps travel.
	CountryBMs      []ShardBitmaps
	EventCountryBMs []ShardBitmaps
	QuarterBMs      []ShardBitmaps
}

// ManifestFromDB renders the manifest for a sharded DB whose part files
// will be written under the given names (one per shard, in shard order).
func ManifestFromDB(s *DB, files []string) (*Manifest, error) {
	return manifestOf(s, files, func(i int) partBitmaps { return encodePartBitmaps(s.parts[i]) })
}

// manifestOf is ManifestFromDB with part i's bitmap sections supplied by
// bitmaps(i) — freshly encoded, or cached by the append log.
func manifestOf(s *DB, files []string, bitmaps func(i int) partBitmaps) (*Manifest, error) {
	if len(files) != s.K() {
		return nil, fmt.Errorf("shard: %d file names for %d shards", len(files), s.K())
	}
	m := &Manifest{
		Meta:    s.meta,
		Sources: append([]string(nil), s.sources.Names()...),
	}
	for i, f := range files {
		m.Entries = append(m.Entries, ManifestEntry{File: f, Lo: s.bounds[i], Hi: s.bounds[i+1]})
	}
	if s.hasGKG {
		m.Themes = append([]string(nil), s.themes.Names()...)
	}
	for i := range s.parts {
		b := bitmaps(i)
		for sec, dst := range []*[]ShardBitmaps{&m.Bitmaps, &m.CountryBMs, &m.EventCountryBMs, &m.QuarterBMs} {
			*dst = append(*dst, ShardBitmaps{Shard: int32(i), Entries: b[sec]})
		}
	}
	return m, nil
}

// partBitmaps is one part's share of the manifest's four bitmap sections,
// in section order: source rows, then the country, event-country and
// quarter value bitmaps. All four are functions of the part's mention rows
// alone — not of the per-event metadata appends change — so the encoding
// of a part file never goes stale.
type partBitmaps [4][]BitmapEntry

func encodePartBitmaps(p *store.DB) partBitmaps {
	var b partBitmaps
	for src := 0; src < p.Sources.Len(); src++ {
		b[0] = append(b[0], BitmapEntry{Source: int32(src), Data: p.SourceRowBitmap(int32(src)).AppendTo(nil)})
	}
	nc := len(gdelt.Countries)
	b[1] = valueBitmaps(nc, p.CountryRowBitmap)
	b[2] = valueBitmaps(nc, p.EventCountryRowBitmap)
	b[3] = valueBitmaps(p.NumQuarters(), p.QuarterRowBitmap)
	return b
}

// valueBitmaps collects one shard's non-empty value bitmaps over a keyed
// index of width n.
func valueBitmaps(n int, get func(k int) *bitmap.Bitmap) []BitmapEntry {
	var out []BitmapEntry
	for k := 0; k < n; k++ {
		if bm := get(k); bm.Cardinality() > 0 {
			out = append(out, BitmapEntry{Source: int32(k), Data: bm.AppendTo(nil)})
		}
	}
	return out
}

// EncodeManifest writes the manifest in the sectioned binary format,
// through one buffer: a section costs no syscall of its own.
func EncodeManifest(w io.Writer, m *Manifest) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	bw.Write(Magic[:])
	bw.WriteByte(manifestVersion)
	var buf []byte
	buf = binary.AppendVarint(buf, int64(m.Meta.Start))
	buf = binary.AppendVarint(buf, int64(m.Meta.Intervals))
	writeSection(bw, secMeta, buf)
	for _, e := range m.Entries {
		buf = buf[:0]
		buf = appendString(buf, e.File)
		buf = binary.AppendVarint(buf, int64(e.Lo))
		buf = binary.AppendVarint(buf, int64(e.Hi))
		writeSection(bw, secEntry, buf)
	}
	writeSection(bw, secSources, appendStrings(nil, m.Sources))
	if m.Themes != nil {
		writeSection(bw, secThemes, appendStrings(nil, m.Themes))
	}
	for _, sec := range []struct {
		tag  byte
		list []ShardBitmaps
	}{
		{secBitmaps, m.Bitmaps},
		{secCountryBM, m.CountryBMs},
		{secEvCountryBM, m.EventCountryBMs},
		{secQuarterBM, m.QuarterBMs},
	} {
		for _, sb := range sec.list {
			buf = buf[:0]
			buf = binary.AppendUvarint(buf, uint64(sb.Shard))
			buf = binary.AppendUvarint(buf, uint64(len(sb.Entries)))
			for _, e := range sb.Entries {
				buf = binary.AppendUvarint(buf, uint64(e.Source))
				buf = binary.AppendUvarint(buf, uint64(len(e.Data)))
				buf = append(buf, e.Data...)
			}
			writeSection(bw, sec.tag, buf)
		}
	}
	writeSection(bw, secEnd, nil)
	// A bufio.Writer keeps the first write error and returns it from every
	// later call, Flush included, so the writes above go unchecked.
	return bw.Flush()
}

func writeSection(w *bufio.Writer, tag byte, payload []byte) {
	w.WriteByte(tag)
	w.Write(binary.AppendUvarint(nil, uint64(len(payload))))
	w.Write(payload)
	w.Write(binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(payload)))
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendStrings(dst []byte, names []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for _, n := range names {
		dst = appendString(dst, n)
	}
	return dst
}

// DecodeManifest reads a manifest, validating structure, bounds and
// checksums. Corrupt input of any shape returns an error.
func DecodeManifest(r io.Reader) (*Manifest, error) {
	br := bufio.NewReader(r)
	var hdr [5]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("shard: manifest header: %w", err)
	}
	if !bytes.Equal(hdr[:4], Magic[:]) {
		return nil, fmt.Errorf("shard: bad manifest magic %q", hdr[:4])
	}
	if hdr[4] != manifestVersion {
		return nil, fmt.Errorf("shard: unsupported manifest version %d", hdr[4])
	}
	m := &Manifest{}
	var haveMeta, haveSources, haveThemes, haveEnd bool
	for !haveEnd {
		tag, payload, err := readSection(br)
		if err != nil {
			return nil, err
		}
		d := &mdecoder{buf: payload}
		switch tag {
		case secMeta:
			if haveMeta {
				return nil, fmt.Errorf("shard: duplicate meta section")
			}
			haveMeta = true
			m.Meta.Start = gdelt.Timestamp(d.varint())
			iv := d.varint()
			if iv <= 0 || iv > 1<<31-1 {
				return nil, fmt.Errorf("shard: manifest intervals %d out of range", iv)
			}
			m.Meta.Intervals = int32(iv)
		case secEntry:
			if len(m.Entries) >= maxEntries {
				return nil, fmt.Errorf("shard: too many manifest entries")
			}
			var e ManifestEntry
			e.File = d.str()
			lo, hi := d.varint(), d.varint()
			if d.err == nil {
				if lo < 0 || hi <= lo || hi > 1<<31-1 {
					return nil, fmt.Errorf("shard: entry range [%d, %d) invalid", lo, hi)
				}
				e.Lo, e.Hi = int32(lo), int32(hi)
			}
			m.Entries = append(m.Entries, e)
		case secSources:
			if haveSources {
				return nil, fmt.Errorf("shard: duplicate sources section")
			}
			haveSources = true
			m.Sources = d.strs()
		case secThemes:
			if haveThemes {
				return nil, fmt.Errorf("shard: duplicate themes section")
			}
			haveThemes = true
			m.Themes = d.strs()
		case secBitmaps, secCountryBM, secEvCountryBM, secQuarterBM:
			sb := ShardBitmaps{Shard: int32(d.uvarint())}
			n := d.uvarint()
			if d.err == nil && (n > maxEntries || n > uint64(len(d.buf))) {
				return nil, fmt.Errorf("shard: bitmap section claims %d entries", n)
			}
			for i := uint64(0); i < n && d.err == nil; i++ {
				src := d.uvarint()
				nb := d.uvarint()
				if d.err != nil {
					break
				}
				if src > maxNames {
					return nil, fmt.Errorf("shard: bitmap key %d out of range", src)
				}
				if nb > maxPayload || nb > uint64(len(d.buf)) {
					return nil, fmt.Errorf("shard: bitmap payload %d exceeds section", nb)
				}
				sb.Entries = append(sb.Entries, BitmapEntry{
					Source: int32(src),
					Data:   append([]byte(nil), d.buf[:nb]...),
				})
				d.buf = d.buf[nb:]
			}
			var dst *[]ShardBitmaps
			switch tag {
			case secBitmaps:
				dst = &m.Bitmaps
			case secCountryBM:
				dst = &m.CountryBMs
			case secEvCountryBM:
				dst = &m.EventCountryBMs
			default:
				dst = &m.QuarterBMs
			}
			for _, prev := range *dst {
				if prev.Shard == sb.Shard {
					return nil, fmt.Errorf("shard: duplicate 0x%02x bitmap section for shard %d", tag, sb.Shard)
				}
			}
			*dst = append(*dst, sb)
		case secEnd:
			haveEnd = true
		default:
			return nil, fmt.Errorf("shard: unknown manifest section 0x%02x", tag)
		}
		if d.err != nil {
			return nil, fmt.Errorf("shard: section 0x%02x: %w", tag, d.err)
		}
		if !haveEnd && d.rem() != 0 {
			return nil, fmt.Errorf("shard: section 0x%02x has %d trailing bytes", tag, d.rem())
		}
	}
	if !haveMeta {
		return nil, fmt.Errorf("shard: manifest has no meta section")
	}
	if !haveSources {
		return nil, fmt.Errorf("shard: manifest has no sources section")
	}
	if len(m.Entries) == 0 {
		return nil, fmt.Errorf("shard: manifest has no shard entries")
	}
	return m, nil
}

func readSection(r *bufio.Reader) (byte, []byte, error) {
	var tag [1]byte
	if _, err := io.ReadFull(r, tag[:]); err != nil {
		return 0, nil, fmt.Errorf("shard: section tag: %w", err)
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, nil, fmt.Errorf("shard: section length: %w", err)
	}
	if n > maxPayload {
		return 0, nil, fmt.Errorf("shard: section 0x%02x claims %d bytes", tag[0], n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("shard: section payload: %w", err)
	}
	var sum [4]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return 0, nil, fmt.Errorf("shard: section checksum: %w", err)
	}
	if got := crc32.ChecksumIEEE(payload); got != binary.LittleEndian.Uint32(sum[:]) {
		return 0, nil, fmt.Errorf("shard: section 0x%02x checksum mismatch", tag[0])
	}
	return tag[0], payload, nil
}

// mdecoder decodes varints and length-prefixed strings from one section
// payload, latching the first error instead of panicking.
type mdecoder struct {
	buf []byte
	err error
}

func (d *mdecoder) rem() int { return len(d.buf) }

func (d *mdecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *mdecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail("truncated uvarint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *mdecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail("truncated varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *mdecoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > maxNameLen || n > uint64(len(d.buf)) {
		d.fail("string length %d exceeds payload", n)
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

func (d *mdecoder) strs() []string {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > maxNames || n > uint64(len(d.buf)) {
		d.fail("name count %d exceeds payload", n)
		return nil
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		out = append(out, d.str())
	}
	return out
}

// AssembleSharded builds a sharded DB from a decoded manifest and its
// loaded part stores, given in entry order. Entries may arrive in any
// time order (the permutation metamorphic property): parts are sorted
// jointly with their entries by interval range before assembly. Every
// manifest defect — ranges that do not tile the archive, dictionaries
// missing names, duplicated names, shards disagreeing on shared events —
// is an error, never a panic.
func AssembleSharded(m *Manifest, parts []*store.DB) (*DB, error) {
	if len(parts) != len(m.Entries) {
		return nil, fmt.Errorf("shard: %d parts for %d manifest entries", len(parts), len(m.Entries))
	}
	order := make([]int, len(parts))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return m.Entries[order[a]].Lo < m.Entries[order[b]].Lo })
	sorted := make([]*store.DB, len(parts))
	bounds := make([]int32, 0, len(parts)+1)
	for i, o := range order {
		sorted[i] = parts[o]
		e := m.Entries[o]
		if i == 0 {
			bounds = append(bounds, e.Lo)
		} else if e.Lo != bounds[len(bounds)-1] {
			return nil, fmt.Errorf("shard: entry ranges do not tile at interval %d", e.Lo)
		}
		bounds = append(bounds, e.Hi)
	}
	for i, p := range sorted {
		if p == nil {
			return nil, fmt.Errorf("shard: part %d is nil", i)
		}
		if p.Meta != m.Meta {
			return nil, fmt.Errorf("shard: part %d meta %+v disagrees with manifest %+v", i, p.Meta, m.Meta)
		}
	}
	// Manifests persist per-shard source-row bitmaps and country/
	// event-country/quarter value bitmaps; validate each
	// against the bitmap rebuilt from the loaded part. The canonical codec
	// makes this a byte comparison: any disagreement means the part file and
	// manifest are from different builds (or one is corrupt).
	checkBitmaps := func(kind string, list []ShardBitmaps,
		width func(p *store.DB) int, rebuild func(p *store.DB, key int32) []byte) error {
		for _, sb := range list {
			if sb.Shard < 0 || int(sb.Shard) >= len(parts) {
				return fmt.Errorf("shard: %s bitmap section for shard %d of %d", kind, sb.Shard, len(parts))
			}
			p := parts[sb.Shard]
			seen := make(map[int32]bool, len(sb.Entries))
			for _, e := range sb.Entries {
				if seen[e.Source] {
					return fmt.Errorf("shard %d: duplicate %s bitmap for key %d", sb.Shard, kind, e.Source)
				}
				seen[e.Source] = true
				if e.Source < 0 || int(e.Source) >= width(p) {
					return fmt.Errorf("shard %d: %s bitmap for key %d of %d", sb.Shard, kind, e.Source, width(p))
				}
				if !bytes.Equal(e.Data, rebuild(p, e.Source)) {
					return fmt.Errorf("shard %d: persisted %s bitmap for key %d disagrees with part data", sb.Shard, kind, e.Source)
				}
			}
		}
		return nil
	}
	for _, c := range []struct {
		kind    string
		list    []ShardBitmaps
		width   func(p *store.DB) int
		rebuild func(p *store.DB, key int32) []byte
	}{
		{"source", m.Bitmaps,
			func(p *store.DB) int { return p.Sources.Len() },
			func(p *store.DB, k int32) []byte { return p.SourceRowBitmap(k).AppendTo(nil) }},
		{"country", m.CountryBMs,
			func(p *store.DB) int { return len(gdelt.Countries) },
			func(p *store.DB, k int32) []byte { return p.CountryRowBitmap(int(k)).AppendTo(nil) }},
		{"event-country", m.EventCountryBMs,
			func(p *store.DB) int { return len(gdelt.Countries) },
			func(p *store.DB, k int32) []byte { return p.EventCountryRowBitmap(int(k)).AppendTo(nil) }},
		{"quarter", m.QuarterBMs,
			func(p *store.DB) int { return p.NumQuarters() },
			func(p *store.DB, k int32) []byte { return p.QuarterRowBitmap(int(k)).AppendTo(nil) }},
	} {
		if err := checkBitmaps(c.kind, c.list, c.width, c.rebuild); err != nil {
			return nil, err
		}
	}
	sources, err := store.FromNames(m.Sources)
	if err != nil {
		return nil, fmt.Errorf("shard: global sources: %w", err)
	}
	var themes *store.Dictionary
	if m.Themes != nil {
		if themes, err = store.FromNames(m.Themes); err != nil {
			return nil, fmt.Errorf("shard: global themes: %w", err)
		}
	}
	return New(sorted, bounds, sources, themes, sorted[0].Report)
}

// WriteFiles writes the sharded DB as one binfmt part file per shard plus
// the manifest at path; part files are named "<base>.shard<i>" next to the
// manifest.
func WriteFiles(path string, s *DB) error {
	dir, base := filepath.Split(path)
	files := make([]string, s.K())
	for i := range files {
		files[i] = fmt.Sprintf("%s.shard%d", base, i)
	}
	m, err := ManifestFromDB(s, files)
	if err != nil {
		return err
	}
	for i, p := range s.parts {
		if err := binfmt.WriteFile(filepath.Join(dir, files[i]), p); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := EncodeManifest(f, m); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a manifest and its part files (resolved relative to the
// manifest's directory) and assembles the sharded DB.
func LoadFile(path string) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	m, err := DecodeManifest(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	dir := filepath.Dir(path)
	parts := make([]*store.DB, len(m.Entries))
	for i, e := range m.Entries {
		if filepath.IsAbs(e.File) || e.File != filepath.Base(e.File) {
			return nil, fmt.Errorf("shard: manifest entry file %q escapes the manifest directory", e.File)
		}
		p, err := binfmt.ReadFile(filepath.Join(dir, e.File))
		if err != nil {
			return nil, fmt.Errorf("shard %d (%s): %w", i, e.File, err)
		}
		parts[i] = p
	}
	return AssembleSharded(m, parts)
}
