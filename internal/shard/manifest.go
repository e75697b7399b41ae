package shard

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"sort"

	"gdeltmine/internal/binfmt"
	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/store"
)

// The shard manifest is a small sectioned binary file (magic "GDSM",
// mirroring the GDMB container of internal/binfmt): after the header, each
// section is a tag byte, a uvarint payload length, the payload, and a
// CRC32 (IEEE) of the payload. Sections: one meta, one entry per shard
// (file name, interval range, and the part file's digest: its byte size
// and a CRC-32C of the whole file), the global source-name list, an
// optional global theme-name list, and an optional chunk ledger (the ticks
// a log's world holds, written only when there are any, as runs of evenly
// spaced marks). The global dictionaries travel as ordered name lists;
// they restate the tail part's dictionaries, which assembly checks them
// against (every other part's are prefixes of those). The decoder is
// defensive end to end: every length is bounded before allocation and
// every failure is an error, never a panic (FuzzManifestDecode pins this).

// Magic identifies a shard manifest file.
var Magic = [4]byte{'G', 'D', 'S', 'M'}

// manifestVersion is the one format version this package writes and reads.
// Versions 1–3 (no part digests; 2 and 3 persisted per-part bitmaps the
// loader rebuilds anyway) have no writer left and are rejected like any
// unknown version.
const manifestVersion = 4

const (
	secMeta    = 0x01
	secEntry   = 0x02
	secSources = 0x03
	secThemes  = 0x04
	secLedger  = 0x09 // 0x05–0x08 held the bitmaps of retired versions
	secEnd     = 0xFF
)

// Decoder allocation caps: far above anything a real manifest holds, low
// enough that a corrupt length cannot balloon memory.
const (
	maxPayload = 1 << 26
	maxEntries = 1 << 16
	maxNames   = 1 << 24
	maxNameLen = 1 << 20
	maxMarks   = 1 << 22
)

// ManifestEntry names one shard file, the interval range it owns, and the
// digest of the file's bytes as written.
type ManifestEntry struct {
	File string
	Lo   int32 // first capture interval (inclusive)
	Hi   int32 // last capture interval (exclusive)
	Digest
}

// Digest identifies a part file's exact bytes: OpenLog refuses
// a part whose file does not match it before decoding a byte, which catches
// a corrupt or truncated part and one from another build or generation,
// whatever column the difference is in.
type Digest struct {
	Size int64  // file length in bytes
	CRC  uint32 // CRC-32C (Castagnoli) of the whole file
}

// digestTable is Castagnoli, not the IEEE polynomial binfmt checksums each
// section with: a payload followed by its own IEEE CRC adds nothing to an
// IEEE CRC over the whole, so a section rewritten with its checksum
// recomputed would leave a whole-file IEEE CRC unchanged.
var digestTable = crc32.MakeTable(crc32.Castagnoli)

func digestOf(data []byte) Digest {
	return Digest{Size: int64(len(data)), CRC: crc32.Checksum(data, digestTable)}
}

// digestWriter passes writes through to w and digests the bytes on the way,
// so a part's digest costs no second read.
type digestWriter struct {
	w io.Writer
	d Digest
}

func (dw *digestWriter) Write(p []byte) (int, error) {
	n, err := dw.w.Write(p)
	dw.d.Size += int64(n)
	dw.d.CRC = crc32.Update(dw.d.CRC, digestTable, p[:n])
	return n, err
}

// Manifest describes a sharded layout on disk: the shared dataset
// geometry, the shard files with their interval ranges and digests, and
// the global dictionaries as ordered name lists.
type Manifest struct {
	Meta    store.Meta
	Entries []ManifestEntry
	Sources []string
	Themes  []string // nil when the shards carry no GKG data
	// Ledger is the chunk ledger of the ticks the world holds (Log.Ledger):
	// capture-interval offsets, ascending, inside the archive span.
	Ledger []int32
}

// ManifestFromDB renders the manifest for a sharded DB whose part files
// were written as files (name and digest, one per shard, in shard order);
// the interval ranges are the DB's.
func ManifestFromDB(s *DB, files []ManifestEntry) (*Manifest, error) {
	if len(files) != s.K() {
		return nil, fmt.Errorf("shard: %d file entries for %d shards", len(files), s.K())
	}
	m := &Manifest{
		Meta:    s.meta,
		Entries: make([]ManifestEntry, len(files)),
		Sources: append([]string(nil), s.Sources().Names()...),
	}
	for i, e := range files {
		e.Lo, e.Hi = s.bounds[i], s.bounds[i+1]
		m.Entries[i] = e
	}
	if t := s.Themes(); t != nil {
		m.Themes = append([]string(nil), t.Names()...)
	}
	return m, nil
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
		buf = binary.AppendVarint(buf, e.Size)
		buf = binary.AppendUvarint(buf, uint64(e.CRC))
		writeSection(bw, secEntry, buf)
	}
	writeSection(bw, secSources, appendStrings(nil, m.Sources))
	if m.Themes != nil {
		writeSection(bw, secThemes, appendStrings(nil, m.Themes))
	}
	if len(m.Ledger) > 0 {
		writeSection(bw, secLedger, appendLedger(nil, m.Ledger))
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

// appendLedger encodes ascending marks as a run count followed by runs of
// (first mark, step, marks): a feed folded without gaps is one run.
func appendLedger(dst []byte, marks []int32) []byte {
	var runs []byte
	n := 0
	for i := 0; i < len(marks); n++ {
		j, step := i+1, int32(0)
		if j < len(marks) {
			step = marks[j] - marks[i]
			for j < len(marks) && marks[j]-marks[j-1] == step {
				j++
			}
		}
		runs = binary.AppendUvarint(runs, uint64(marks[i]))
		runs = binary.AppendUvarint(runs, uint64(step))
		runs = binary.AppendUvarint(runs, uint64(j-i))
		i = j
	}
	return append(binary.AppendUvarint(dst, uint64(n)), runs...)
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
	var haveMeta, haveSources, haveThemes, haveLedger, haveEnd bool
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
			size, crc := d.varint(), d.uvarint()
			if d.err == nil {
				if lo < 0 || hi <= lo || hi > 1<<31-1 {
					return nil, fmt.Errorf("shard: entry range [%d, %d) invalid", lo, hi)
				}
				if size < 0 || crc > 1<<32-1 {
					return nil, fmt.Errorf("shard: entry digest (%d bytes, crc %#x) invalid", size, crc)
				}
				e.Lo, e.Hi = int32(lo), int32(hi)
				e.Digest = Digest{Size: size, CRC: uint32(crc)}
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
		case secLedger:
			if haveLedger {
				return nil, fmt.Errorf("shard: duplicate ledger section")
			}
			haveLedger = true
			if !haveMeta {
				return nil, fmt.Errorf("shard: ledger section before meta")
			}
			if m.Ledger, err = d.ledger(m.Meta.Intervals); err != nil {
				return nil, err
			}
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

// ledger decodes a chunk ledger and checks it against an archive of
// intervals capture intervals: every run is non-empty, advances when it has
// more than one mark, starts past the previous run's last mark and ends
// inside the span. Truncation is latched in d.err like any other field.
func (d *mdecoder) ledger(intervals int32) ([]int32, error) {
	n := d.uvarint()
	if n > uint64(d.rem()) {
		d.fail("run count %d exceeds payload", n)
	}
	span := uint64(intervals)
	var marks []int32
	prevFirst := int32(-1)
	for r := uint64(0); r < n; r++ {
		first, step, count := d.uvarint(), d.uvarint(), d.uvarint()
		switch {
		case d.err != nil:
			return nil, nil
		case count == 0:
			return nil, fmt.Errorf("shard: ledger run %d is empty", r)
		case count > 1 && step == 0:
			return nil, fmt.Errorf("shard: ledger run %d repeats mark %d", r, first)
		case first >= span || step >= span || count > span || first+(count-1)*step >= span:
			return nil, fmt.Errorf("shard: ledger run %d leaves the archive span [0, %d)", r, intervals)
		case uint64(len(marks))+count > maxMarks:
			return nil, fmt.Errorf("shard: ledger holds more than %d marks", maxMarks)
		case int32(first) < prevFirst:
			return nil, fmt.Errorf("shard: ledger run %d starts before the run preceding it", r)
		case len(marks) > 0 && int32(first) <= marks[len(marks)-1]:
			return nil, fmt.Errorf("shard: ledger run %d overlaps the run preceding it", r)
		}
		prevFirst = int32(first)
		for i := uint64(0); i < count; i++ {
			marks = append(marks, int32(first+i*step))
		}
	}
	return marks, nil
}

// AssembleSharded builds a sharded DB from a decoded manifest and its
// loaded part stores, given in entry order. Entries may arrive in any
// time order (the permutation metamorphic property): parts are sorted
// jointly with their entries by interval range before assembly. Every
// manifest defect — ranges that do not tile the archive, dictionaries
// that disagree with the manifest's lists, shards disagreeing on shared
// events — is an error, never a panic. So is a part whose dictionary is
// not a prefix of the manifest's list: parts share the world's ids, and a
// layout whose parts were encoded against dictionaries of their own (one
// written before they shared them) is refused by name, never remapped. The
// parts' bytes were checked against the entries' digests when they were
// read (readPart); their derived indexes are rebuilt from the tables on
// load, so there is nothing else to check.
func AssembleSharded(m *Manifest, parts []*store.DB) (*DB, error) {
	if len(parts) != len(m.Entries) {
		return nil, fmt.Errorf("shard: %d parts for %d manifest entries", len(parts), len(m.Entries))
	}
	if len(parts) == 0 {
		return nil, fmt.Errorf("shard: no parts")
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
	rerun := func(i int, err error) error {
		return fmt.Errorf("shard: part %s %w; re-run gdeltconvert -shards to rewrite the layout "+
			"(parts share the world's dictionary ids)", m.Entries[order[i]].File, err)
	}
	ti := len(sorted) - 1
	tail := sorted[ti]
	var tailThemes []string
	if tail.GKG != nil {
		tailThemes = tail.GKG.Themes.Names()
	}
	if !slices.Equal(tail.Sources.Names(), m.Sources) || !slices.Equal(tailThemes, m.Themes) {
		return nil, rerun(ti, errors.New("dictionaries differ from the manifest's lists"))
	}
	for i, p := range sorted {
		if err := sameIDSpace(p, tail); err != nil {
			return nil, rerun(i, err)
		}
	}
	return New(sorted, bounds)
}

// readPart loads a part file once its bytes match the digest the manifest
// recorded for it. A part of an older format version is refused with the
// re-run hint.
func readPart(path string, want Digest) (*store.DB, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if got := digestOf(data); got != want {
		return nil, fmt.Errorf("part file holds %d bytes with crc %08x, the manifest records %d bytes with crc %08x",
			got.Size, got.CRC, want.Size, want.CRC)
	}
	db, err := binfmt.Read(bytes.NewReader(data))
	if errors.Is(err, binfmt.ErrOldFormat) {
		return nil, fmt.Errorf("%w; re-run gdeltconvert -shards to rewrite the layout", err)
	}
	return db, err
}
