// Package binfmt implements the indexed binary database format the
// preprocessing tool produces: a sectioned container holding the
// dictionary-encoded columnar tables with varint/delta compression and
// per-section CRC-32 integrity checks. Converting the raw CSV archive once
// and thereafter loading this format is what makes the paper's
// "read the entire GDELT database in seconds" workflow possible.
//
// Layout:
//
//	magic "GDMB", format version (uint32 LE)
//	repeated sections: tag [4]byte, payload length (uint64 LE),
//	                   payload, CRC-32 (IEEE) of payload (uint32 LE)
//	terminator section tag "END "
//
// Sections: META (archive span), SRCS (source dictionary), EVTS (event
// columns), MNTS (mention columns), REPT (validation report), GKGS (GKG
// theme postings, optional). Read refuses a section it does not know and
// one that repeats: the CRC does not cover the tag, so either means a
// damaged file, never a newer writer (a newer format bumps the version).
package binfmt

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/store"
)

// Version is the current format version. Version 2 dropped the columns no
// query reads (the event day, the GKG source, tone and organizations) and
// widened the event country to int32. Version 3 stores the GKG themes as
// theme postings only, and no persons.
const Version = 3

// ErrOldFormat marks a file written in a format version older than Version,
// which this build does not read: the file has to be converted again.
var ErrOldFormat = errors.New("binfmt: file written in an older format version")

var magic = [4]byte{'G', 'D', 'M', 'B'}

// section tags
var (
	tagMeta     = [4]byte{'M', 'E', 'T', 'A'}
	tagSources  = [4]byte{'S', 'R', 'C', 'S'}
	tagEvents   = [4]byte{'E', 'V', 'T', 'S'}
	tagMentions = [4]byte{'M', 'N', 'T', 'S'}
	tagReport   = [4]byte{'R', 'E', 'P', 'T'}
	tagGKG      = [4]byte{'G', 'K', 'G', 'S'}
	tagEnd      = [4]byte{'E', 'N', 'D', ' '}
)

// Write serializes the database to w.
func Write(w io.Writer, db *store.DB) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	var v4 [4]byte
	binary.LittleEndian.PutUint32(v4[:], Version)
	if _, err := bw.Write(v4[:]); err != nil {
		return err
	}
	if err := WriteSection(bw, tagMeta, encodeMeta(db.Meta)); err != nil {
		return err
	}
	if err := WriteSection(bw, tagSources, encodeStrings(db.Sources.Names())); err != nil {
		return err
	}
	if err := WriteSection(bw, tagEvents, encodeEvents(&db.Events)); err != nil {
		return err
	}
	if err := WriteSection(bw, tagMentions, encodeMentions(&db.Mentions)); err != nil {
		return err
	}
	if err := WriteSection(bw, tagReport, encodeReport(db.Report)); err != nil {
		return err
	}
	if db.GKG != nil {
		if err := WriteSection(bw, tagGKG, encodeGKG(db.GKG)); err != nil {
			return err
		}
	}
	if err := WriteSection(bw, tagEnd, nil); err != nil {
		return err
	}
	return bw.Flush()
}

// Read deserializes a database from r, rebuilding the derived indexes. A
// *bytes.Reader is read as it is; any other reader through a 1 MB buffer.
func Read(r io.Reader) (*store.DB, error) {
	br := r
	if _, inMemory := r.(*bytes.Reader); !inMemory {
		br = bufio.NewReaderSize(r, 1<<20)
	}
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("binfmt: reading header: %w", err)
	}
	if [4]byte(hdr[:4]) != magic {
		return nil, fmt.Errorf("binfmt: bad magic %q", hdr[:4])
	}
	switch v := binary.LittleEndian.Uint32(hdr[4:]); {
	case v < Version:
		return nil, fmt.Errorf("%w (version %d; this build reads %d)", ErrOldFormat, v, Version)
	case v > Version:
		return nil, fmt.Errorf("binfmt: unsupported version %d (want %d)", v, Version)
	}
	var (
		meta       store.Meta
		dict       *store.Dictionary
		events     store.EventTable
		mentions   store.MentionTable
		report     *gdelt.ValidationReport
		gkgPayload []byte
		seen       = map[[4]byte]bool{}
	)
	for {
		tag, payload, err := ReadSection(br, maxSection)
		if err != nil {
			return nil, err
		}
		// The CRC covers a section's payload, not its tag: a damaged tag
		// must not turn a known section into one skipped or read twice.
		if seen[tag] {
			return nil, fmt.Errorf("binfmt: repeated section %q", tag)
		}
		seen[tag] = true
		switch tag {
		case tagEnd:
			if !seen[tagMeta] || !seen[tagSources] || !seen[tagEvents] || !seen[tagMentions] {
				return nil, fmt.Errorf("binfmt: incomplete database (meta=%v dict=%v events=%v mentions=%v)",
					seen[tagMeta], seen[tagSources], seen[tagEvents], seen[tagMentions])
			}
			db, err := store.AssembleDB(meta, dict, events, mentions, report)
			if err != nil {
				return nil, err
			}
			if gkgPayload != nil {
				if err := decodeGKGInto(db, gkgPayload); err != nil {
					return nil, err
				}
			}
			return db, nil
		case tagMeta:
			if meta, err = decodeMeta(payload); err != nil {
				return nil, err
			}
		case tagSources:
			names, err := decodeStrings(&Decoder{buf: payload})
			if err != nil {
				return nil, err
			}
			if dict, err = store.FromNames(names); err != nil {
				return nil, err
			}
		case tagEvents:
			if events, err = decodeEvents(payload); err != nil {
				return nil, err
			}
		case tagMentions:
			if mentions, err = decodeMentions(payload); err != nil {
				return nil, err
			}
		case tagReport:
			if report, err = decodeReport(payload); err != nil {
				return nil, err
			}
		case tagGKG:
			gkgPayload = payload
		default:
			return nil, fmt.Errorf("binfmt: unknown section %q", tag)
		}
	}
}

// WriteFile serializes the database to path.
func WriteFile(path string, db *store.DB) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, db); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile loads a database from path. A file of an older format version
// is refused with its path and the re-run hint.
func ReadFile(path string) (*store.DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	db, err := Read(f)
	if errors.Is(err, ErrOldFormat) {
		return nil, fmt.Errorf("%s: %w; re-run gdeltconvert to rewrite it", path, err)
	}
	return db, err
}

// WriteSection writes one section of the container: its tag, the payload
// length, the payload and a CRC-32 (IEEE) of the payload. The shard
// manifest is framed the same way.
func WriteSection(w io.Writer, tag [4]byte, payload []byte) error {
	var hdr [12]byte
	copy(hdr[:4], tag[:])
	binary.LittleEndian.PutUint64(hdr[4:], uint64(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var c4 [4]byte
	binary.LittleEndian.PutUint32(c4[:], crc32.ChecksumIEEE(payload))
	_, err := w.Write(c4[:])
	return err
}

// maxSection bounds a single section payload (4 GiB) to catch corrupt
// length fields before allocating.
const maxSection = 4 << 30

// ReadSection reads one section WriteSection wrote, refusing a payload
// longer than limit bytes and one whose checksum does not match.
func ReadSection(r io.Reader, limit uint64) ([4]byte, []byte, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return [4]byte{}, nil, fmt.Errorf("binfmt: reading section header: %w", err)
	}
	tag := [4]byte(hdr[:4])
	n := binary.LittleEndian.Uint64(hdr[4:])
	if n > limit {
		return tag, nil, fmt.Errorf("binfmt: section %q length %d exceeds limit", tag, n)
	}
	// Grow the payload buffer as bytes actually arrive rather than trusting
	// the length field with one huge allocation: a corrupted length then
	// fails at EOF instead of attempting a multi-gigabyte make.
	var pbuf bytes.Buffer
	if m, err := io.CopyN(&pbuf, r, int64(n)); err != nil {
		return tag, nil, fmt.Errorf("binfmt: reading section %q (%d of %d bytes): %w", tag, m, n, err)
	}
	payload := pbuf.Bytes()
	var c4 [4]byte
	if _, err := io.ReadFull(r, c4[:]); err != nil {
		return tag, nil, fmt.Errorf("binfmt: reading section %q crc: %w", tag, err)
	}
	if got := binary.LittleEndian.Uint32(c4[:]); got != crc32.ChecksumIEEE(payload) {
		return tag, nil, fmt.Errorf("binfmt: section %q checksum mismatch", tag)
	}
	return tag, payload, nil
}

// --- encoding primitives ---

func putUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// putUvarints appends vs as uvarints, each less its predecessor when delta
// is set, so a sorted column costs about a byte per value.
func putUvarints[T int32 | int64](dst []byte, vs []T, delta bool) []byte {
	var prev T
	for _, v := range vs {
		dst = putUvarint(dst, uint64(v-prev))
		if delta {
			prev = v
		}
	}
	return dst
}

func putVarint(dst []byte, v int64) []byte {
	return binary.AppendVarint(dst, v)
}

// AppendString appends s as its length, a uvarint, followed by its bytes.
func AppendString(dst []byte, s string) []byte {
	dst = putUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// Decoder reads varints, counts and strings from one section payload. The
// first failure is latched: later reads return zero values, and Err
// reports it.
type Decoder struct {
	buf []byte
	pos int
	err error
}

// NewDecoder returns a Decoder over payload.
func NewDecoder(payload []byte) *Decoder { return &Decoder{buf: payload} }

// Err returns the first decode failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Len returns the number of payload bytes not yet read.
func (d *Decoder) Len() int { return len(d.buf) - d.pos }

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		d.err = fmt.Errorf("binfmt: truncated uvarint at %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

// Varint reads a signed (zig-zag) varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.pos:])
	if n <= 0 {
		d.err = fmt.Errorf("binfmt: truncated varint at %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

// uvarints fills dst with the values putUvarints wrote and returns it.
func uvarints[T int32 | int64](d *Decoder, dst []T, delta bool) []T {
	var prev T
	for i := range dst {
		dst[i] = prev + T(d.Uvarint())
		if delta {
			prev = dst[i]
		}
	}
	return dst
}

func (d *Decoder) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.pos+n > len(d.buf) {
		d.err = fmt.Errorf("binfmt: truncated byte run of %d at %d", n, d.pos)
		return nil
	}
	b := d.buf[d.pos : d.pos+n]
	d.pos += n
	return b
}

// Str reads a string AppendString wrote.
func (d *Decoder) Str() string {
	return string(d.bytes(int(d.Uvarint())))
}

// Count reads an element count, refusing one above limit or above the
// payload bytes left, since every element takes at least one byte.
func (d *Decoder) Count(limit uint64) (int, bool) {
	n := d.Uvarint()
	if d.err != nil {
		return 0, false
	}
	if n > limit {
		d.err = fmt.Errorf("binfmt: count %d exceeds limit %d", n, limit)
		return 0, false
	}
	// Every counted element occupies at least one payload byte, so a count
	// beyond the remaining buffer is corrupt regardless of the limit —
	// reject before allocating element slices.
	if remaining := uint64(len(d.buf) - d.pos); n > remaining {
		d.err = fmt.Errorf("binfmt: count %d exceeds remaining payload %d", n, remaining)
		return 0, false
	}
	return int(n), true
}

const maxRows = 1 << 33 // generous row-count sanity bound

// --- section codecs ---

func encodeMeta(m store.Meta) []byte {
	var out []byte
	out = putVarint(out, int64(m.Start))
	out = putVarint(out, int64(m.Intervals))
	return out
}

func decodeMeta(b []byte) (store.Meta, error) {
	d := &Decoder{buf: b}
	m := store.Meta{
		Start:     gdelt.Timestamp(d.Varint()),
		Intervals: int32(d.Varint()),
	}
	if d.err != nil {
		return m, d.err
	}
	if !m.Start.Valid() || m.Intervals <= 0 {
		return m, fmt.Errorf("binfmt: implausible meta %v/%d", m.Start, m.Intervals)
	}
	return m, nil
}

func encodeStrings(names []string) []byte {
	var out []byte
	out = putUvarint(out, uint64(len(names)))
	for _, n := range names {
		out = AppendString(out, n)
	}
	return out
}

func decodeStrings(d *Decoder) ([]string, error) {
	n, ok := d.Count(maxRows)
	if !ok {
		return nil, d.err
	}
	names := make([]string, 0, n)
	for i := 0; i < n; i++ {
		names = append(names, d.Str())
	}
	return names, d.err
}

func encodeEvents(t *store.EventTable) []byte {
	var out []byte
	n := t.Len()
	out = putUvarint(out, uint64(n))
	out = putUvarints(out, t.ID, true) // strictly increasing
	out = putUvarints(out, t.Interval, false)
	for _, v := range t.Country {
		out = putVarint(out, int64(v))
	}
	out = putUvarints(out, t.NumArticles, false)
	for _, v := range t.FirstMention {
		out = putVarint(out, int64(v))
	}
	for _, u := range t.SourceURL {
		out = AppendString(out, u)
	}
	return out
}

func decodeEvents(b []byte) (store.EventTable, error) {
	var t store.EventTable
	d := &Decoder{buf: b}
	n, ok := d.Count(maxRows)
	if !ok {
		return t, d.err
	}
	t.ID = uvarints(d, make([]int64, n), true)
	t.Interval = uvarints(d, make([]int32, n), false)
	// A country indexes per-country tables (the value bitmaps), so one
	// outside gdelt.Countries is refused here, where it enters.
	t.Country = make([]int32, n)
	for i := range t.Country {
		c := d.Varint()
		if c < -1 || c >= int64(len(gdelt.Countries)) {
			return t, fmt.Errorf("binfmt: event %d has country %d of %d", i, c, len(gdelt.Countries))
		}
		t.Country[i] = int32(c)
	}
	t.NumArticles = uvarints(d, make([]int32, n), false)
	t.FirstMention = make([]int32, n)
	for i := range t.FirstMention {
		t.FirstMention[i] = int32(d.Varint())
	}
	t.SourceURL = make([]string, n)
	for i := range t.SourceURL {
		t.SourceURL[i] = d.Str()
	}
	return t, d.err
}

func encodeMentions(t *store.MentionTable) []byte {
	var out []byte
	n := t.Len()
	out = putUvarint(out, uint64(n))
	out = putUvarints(out, t.EventRow, false)
	out = putUvarints(out, t.Source, false)
	out = putUvarints(out, t.Interval, true) // non-decreasing
	out = putUvarints(out, t.Delay, false)
	out = putUvarints(out, t.DocLen, false)
	for _, v := range t.Tone {
		var f4 [4]byte
		binary.LittleEndian.PutUint32(f4[:], math.Float32bits(v))
		out = append(out, f4[:]...)
	}
	for _, v := range t.Confidence {
		out = append(out, byte(v))
	}
	return out
}

func decodeMentions(b []byte) (store.MentionTable, error) {
	var t store.MentionTable
	d := &Decoder{buf: b}
	n, ok := d.Count(maxRows)
	if !ok {
		return t, d.err
	}
	t.EventRow = uvarints(d, make([]int32, n), false)
	t.Source = uvarints(d, make([]int32, n), false)
	t.Interval = uvarints(d, make([]int32, n), true)
	t.Delay = uvarints(d, make([]int32, n), false)
	t.DocLen = uvarints(d, make([]int32, n), false)
	t.Tone = make([]float32, n)
	for i := range t.Tone {
		f := d.bytes(4)
		if d.err != nil {
			return t, d.err
		}
		t.Tone[i] = math.Float32frombits(binary.LittleEndian.Uint32(f))
	}
	t.Confidence = make([]int8, n)
	conf := d.bytes(n)
	if d.err != nil {
		return t, d.err
	}
	for i := range t.Confidence {
		t.Confidence[i] = int8(conf[i])
	}
	return t, d.err
}

func encodeReport(r *gdelt.ValidationReport) []byte {
	var out []byte
	if r == nil {
		r = &gdelt.ValidationReport{}
	}
	out = putUvarint(out, uint64(len(r.Counts)))
	for _, c := range r.Counts {
		out = putUvarint(out, uint64(c))
	}
	for _, exs := range r.Examples {
		out = putUvarint(out, uint64(len(exs)))
		for _, ex := range exs {
			out = AppendString(out, ex)
		}
	}
	return out
}

func decodeReport(b []byte) (*gdelt.ValidationReport, error) {
	d := &Decoder{buf: b}
	r := &gdelt.ValidationReport{}
	n, ok := d.Count(uint64(len(r.Counts)))
	if !ok {
		return nil, d.err
	}
	for i := 0; i < n; i++ {
		r.Counts[i] = int64(d.Uvarint())
	}
	for i := 0; i < n; i++ {
		m, ok := d.Count(1 << 20)
		if !ok {
			return nil, d.err
		}
		for j := 0; j < m; j++ {
			r.Examples[i] = append(r.Examples[i], d.Str())
		}
	}
	return r, d.err
}
