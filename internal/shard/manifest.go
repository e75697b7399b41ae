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
	"sort"

	"gdeltmine/internal/binfmt"
	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/store"
)

// The shard manifest is a small sectioned binary file: magic "GDSM" and a
// version byte, then sections in the container framing of internal/binfmt
// (binfmt.WriteSection: tag, payload length, payload, CRC-32 of the
// payload) read back with binfmt's bounded decoder. Sections: one meta, one
// entry per shard (file name, interval range, and the part file's digest:
// its byte size and a CRC-32C of the whole file), and an optional chunk
// ledger (the ticks a log's world holds, written only when there are any,
// as runs of evenly spaced marks). The world's source and theme
// dictionaries are the tail part's, whose bytes its entry's digest pins.
// The decoder is defensive end to end: every length is bounded before
// allocation and every failure is an error, never a panic
// (FuzzManifestDecode pins this).

// Magic identifies a shard manifest file.
var Magic = [4]byte{'G', 'D', 'S', 'M'}

// manifestVersion is the one format version this package writes and reads.
// Version 4 framed its sections on its own and restated the tail's
// dictionaries as name lists; versions 1–3 had no part digests. None has a
// writer left, and each is refused with the re-run hint.
const manifestVersion = 5

var (
	tagMeta   = [4]byte{'M', 'E', 'T', 'A'}
	tagEntry  = [4]byte{'P', 'A', 'R', 'T'}
	tagLedger = [4]byte{'L', 'D', 'G', 'R'}
	tagEnd    = [4]byte{'E', 'N', 'D', ' '}
)

// Decoder allocation caps: far above anything a real manifest holds, low
// enough that a corrupt length cannot balloon memory.
const (
	maxPayload = 1 << 26
	maxEntries = 1 << 16
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
// geometry and the shard files with their interval ranges and digests.
type Manifest struct {
	Meta    store.Meta
	Entries []ManifestEntry
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
	m := &Manifest{Meta: s.meta, Entries: make([]ManifestEntry, len(files))}
	for i, e := range files {
		e.Lo, e.Hi = s.bounds[i], s.bounds[i+1]
		m.Entries[i] = e
	}
	return m, nil
}

// EncodeManifest writes the manifest in the sectioned binary format,
// through one buffer: a section costs no syscall of its own.
func EncodeManifest(w io.Writer, m *Manifest) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	// A bufio.Writer keeps the first write error and returns it from every
	// later call, Flush included, so the writes before it go unchecked.
	bw.Write(Magic[:])
	bw.WriteByte(manifestVersion)
	var buf []byte
	buf = binary.AppendVarint(buf, int64(m.Meta.Start))
	buf = binary.AppendVarint(buf, int64(m.Meta.Intervals))
	binfmt.WriteSection(bw, tagMeta, buf)
	for _, e := range m.Entries {
		buf = binfmt.AppendString(buf[:0], e.File)
		buf = binary.AppendVarint(buf, int64(e.Lo))
		buf = binary.AppendVarint(buf, int64(e.Hi))
		buf = binary.AppendVarint(buf, e.Size)
		buf = binary.AppendUvarint(buf, uint64(e.CRC))
		binfmt.WriteSection(bw, tagEntry, buf)
	}
	if len(m.Ledger) > 0 {
		binfmt.WriteSection(bw, tagLedger, appendLedger(nil, m.Ledger))
	}
	binfmt.WriteSection(bw, tagEnd, nil)
	return bw.Flush()
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

// DecodeManifest reads a manifest, validating structure, bounds and
// checksums. Corrupt input of any shape returns an error, and a manifest
// of another version one that says to re-run gdeltconvert -shards.
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
		return nil, fmt.Errorf("shard: unsupported manifest version %d (this build reads %d); "+
			"re-run gdeltconvert -shards to rewrite the layout", hdr[4], manifestVersion)
	}
	m := &Manifest{}
	var haveMeta, haveLedger bool
	for {
		tag, payload, err := binfmt.ReadSection(br, maxPayload)
		if err != nil {
			return nil, fmt.Errorf("shard: manifest: %w", err)
		}
		d := binfmt.NewDecoder(payload)
		switch tag {
		case tagMeta:
			if haveMeta {
				return nil, fmt.Errorf("shard: duplicate meta section")
			}
			haveMeta = true
			m.Meta.Start = gdelt.Timestamp(d.Varint())
			iv := d.Varint()
			if d.Err() == nil && (iv <= 0 || iv > 1<<31-1) {
				return nil, fmt.Errorf("shard: manifest intervals %d out of range", iv)
			}
			m.Meta.Intervals = int32(iv)
		case tagEntry:
			if len(m.Entries) >= maxEntries {
				return nil, fmt.Errorf("shard: too many manifest entries")
			}
			var e ManifestEntry
			e.File = d.Str()
			lo, hi := d.Varint(), d.Varint()
			size, crc := d.Varint(), d.Uvarint()
			if d.Err() == nil {
				if len(e.File) > maxNameLen {
					return nil, fmt.Errorf("shard: entry file name of %d bytes", len(e.File))
				}
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
		case tagLedger:
			if haveLedger {
				return nil, fmt.Errorf("shard: duplicate ledger section")
			}
			haveLedger = true
			if !haveMeta {
				return nil, fmt.Errorf("shard: ledger section before meta")
			}
			if m.Ledger, err = decodeLedger(d, m.Meta.Intervals); err != nil {
				return nil, err
			}
		case tagEnd:
		default:
			return nil, fmt.Errorf("shard: unknown manifest section %q", tag)
		}
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("shard: section %q: %w", tag, err)
		}
		if d.Len() != 0 {
			return nil, fmt.Errorf("shard: section %q has %d trailing bytes", tag, d.Len())
		}
		if tag == tagEnd {
			break
		}
	}
	if !haveMeta {
		return nil, fmt.Errorf("shard: manifest has no meta section")
	}
	if len(m.Entries) == 0 {
		return nil, fmt.Errorf("shard: manifest has no shard entries")
	}
	return m, nil
}

// decodeLedger decodes a chunk ledger and checks it against an archive of
// intervals capture intervals: every run is non-empty, advances when it has
// more than one mark, starts past the previous run's last mark and ends
// inside the span. Truncation is latched in d like any other field.
func decodeLedger(d *binfmt.Decoder, intervals int32) ([]int32, error) {
	n, _ := d.Count(maxMarks)
	span := uint64(intervals)
	var marks []int32
	prevFirst := int32(-1)
	for r := 0; r < n; r++ {
		first, step, count := d.Uvarint(), d.Uvarint(), d.Uvarint()
		switch {
		case d.Err() != nil:
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
// manifest defect — ranges that do not tile the archive, shards
// disagreeing on shared events — is an error, never a panic. So is a part
// whose dictionary is not a prefix of the tail's, the world's: parts share
// the world's ids, and a layout whose parts were encoded against
// dictionaries of their own (one written before they shared them) is
// refused by name, never remapped. The
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
	tail := sorted[len(sorted)-1]
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
	db, err := binfmt.ReadBytes(data)
	if errors.Is(err, binfmt.ErrOldFormat) {
		return nil, fmt.Errorf("%w; re-run gdeltconvert -shards to rewrite the layout", err)
	}
	return db, err
}
