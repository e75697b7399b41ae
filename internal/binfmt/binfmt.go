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
// columns), MNTS (mention columns), REPT (validation report).
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
// widened the event country to int32.
const Version = 2

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
	if err := writeSection(bw, tagMeta, encodeMeta(db.Meta)); err != nil {
		return err
	}
	if err := writeSection(bw, tagSources, encodeStrings(db.Sources.Names())); err != nil {
		return err
	}
	if err := writeSection(bw, tagEvents, encodeEvents(&db.Events)); err != nil {
		return err
	}
	if err := writeSection(bw, tagMentions, encodeMentions(&db.Mentions)); err != nil {
		return err
	}
	if err := writeSection(bw, tagReport, encodeReport(db.Report)); err != nil {
		return err
	}
	if db.GKG != nil {
		if err := writeSection(bw, tagGKG, encodeGKG(db.GKG)); err != nil {
			return err
		}
	}
	if err := writeSection(bw, tagEnd, nil); err != nil {
		return err
	}
	return bw.Flush()
}

// Read deserializes a database from r, rebuilding the derived indexes.
func Read(r io.Reader) (*store.DB, error) {
	br := bufio.NewReaderSize(r, 1<<20)
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
		haveMeta   bool
		haveDict   bool
		haveEvents bool
		haveMent   bool
	)
	for {
		tag, payload, err := readSection(br)
		if err != nil {
			return nil, err
		}
		switch tag {
		case tagEnd:
			if !haveMeta || !haveDict || !haveEvents || !haveMent {
				return nil, fmt.Errorf("binfmt: incomplete database (meta=%v dict=%v events=%v mentions=%v)",
					haveMeta, haveDict, haveEvents, haveMent)
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
			haveMeta = true
		case tagSources:
			names, err := decodeStrings(payload)
			if err != nil {
				return nil, err
			}
			if dict, err = store.FromNames(names); err != nil {
				return nil, err
			}
			haveDict = true
		case tagEvents:
			if events, err = decodeEvents(payload); err != nil {
				return nil, err
			}
			haveEvents = true
		case tagMentions:
			if mentions, err = decodeMentions(payload); err != nil {
				return nil, err
			}
			haveMent = true
		case tagReport:
			if report, err = decodeReport(payload); err != nil {
				return nil, err
			}
		case tagGKG:
			gkgPayload = payload
		default:
			// Unknown sections are skipped for forward compatibility.
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

func writeSection(w io.Writer, tag [4]byte, payload []byte) error {
	if _, err := w.Write(tag[:]); err != nil {
		return err
	}
	var l8 [8]byte
	binary.LittleEndian.PutUint64(l8[:], uint64(len(payload)))
	if _, err := w.Write(l8[:]); err != nil {
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

func readSection(r io.Reader) ([4]byte, []byte, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return [4]byte{}, nil, fmt.Errorf("binfmt: reading section header: %w", err)
	}
	tag := [4]byte(hdr[:4])
	n := binary.LittleEndian.Uint64(hdr[4:])
	if n > maxSection {
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

func putVarint(dst []byte, v int64) []byte {
	return binary.AppendVarint(dst, v)
}

type decoder struct {
	buf []byte
	pos int
	err error
}

func (d *decoder) uvarint() uint64 {
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

func (d *decoder) varint() int64 {
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

func (d *decoder) bytes(n int) []byte {
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

func (d *decoder) count(limit uint64) (int, bool) {
	n := d.uvarint()
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
	d := &decoder{buf: b}
	m := store.Meta{
		Start:     gdelt.Timestamp(d.varint()),
		Intervals: int32(d.varint()),
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
		out = putUvarint(out, uint64(len(n)))
		out = append(out, n...)
	}
	return out
}

func decodeStrings(b []byte) ([]string, error) {
	d := &decoder{buf: b}
	n, ok := d.count(maxRows)
	if !ok {
		return nil, d.err
	}
	names := make([]string, 0, n)
	for i := 0; i < n; i++ {
		l := int(d.uvarint())
		names = append(names, string(d.bytes(l)))
	}
	return names, d.err
}

func encodeEvents(t *store.EventTable) []byte {
	var out []byte
	n := t.Len()
	out = putUvarint(out, uint64(n))
	var prev int64
	for _, id := range t.ID { // strictly increasing: delta-encode
		out = putUvarint(out, uint64(id-prev))
		prev = id
	}
	for _, v := range t.Interval {
		out = putUvarint(out, uint64(v))
	}
	for _, v := range t.Country {
		out = putVarint(out, int64(v))
	}
	for _, v := range t.NumArticles {
		out = putUvarint(out, uint64(v))
	}
	for _, v := range t.FirstMention {
		out = putVarint(out, int64(v))
	}
	for _, u := range t.SourceURL {
		out = putUvarint(out, uint64(len(u)))
		out = append(out, u...)
	}
	return out
}

func decodeEvents(b []byte) (store.EventTable, error) {
	var t store.EventTable
	d := &decoder{buf: b}
	n, ok := d.count(maxRows)
	if !ok {
		return t, d.err
	}
	t.ID = make([]int64, n)
	var prev int64
	for i := range t.ID {
		prev += int64(d.uvarint())
		t.ID[i] = prev
	}
	t.Interval = make([]int32, n)
	for i := range t.Interval {
		t.Interval[i] = int32(d.uvarint())
	}
	// A country indexes per-country tables (the value bitmaps), so one
	// outside gdelt.Countries is refused here, where it enters.
	t.Country = make([]int32, n)
	for i := range t.Country {
		c := d.varint()
		if c < -1 || c >= int64(len(gdelt.Countries)) {
			return t, fmt.Errorf("binfmt: event %d has country %d of %d", i, c, len(gdelt.Countries))
		}
		t.Country[i] = int32(c)
	}
	t.NumArticles = make([]int32, n)
	for i := range t.NumArticles {
		t.NumArticles[i] = int32(d.uvarint())
	}
	t.FirstMention = make([]int32, n)
	for i := range t.FirstMention {
		t.FirstMention[i] = int32(d.varint())
	}
	t.SourceURL = make([]string, n)
	for i := range t.SourceURL {
		l := int(d.uvarint())
		t.SourceURL[i] = string(d.bytes(l))
	}
	return t, d.err
}

func encodeMentions(t *store.MentionTable) []byte {
	var out []byte
	n := t.Len()
	out = putUvarint(out, uint64(n))
	for _, v := range t.EventRow {
		out = putUvarint(out, uint64(v))
	}
	for _, v := range t.Source {
		out = putUvarint(out, uint64(v))
	}
	var prev int32
	for _, v := range t.Interval { // non-decreasing: delta-encode
		out = putUvarint(out, uint64(v-prev))
		prev = v
	}
	for _, v := range t.Delay {
		out = putUvarint(out, uint64(v))
	}
	for _, v := range t.DocLen {
		out = putUvarint(out, uint64(v))
	}
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
	d := &decoder{buf: b}
	n, ok := d.count(maxRows)
	if !ok {
		return t, d.err
	}
	t.EventRow = make([]int32, n)
	for i := range t.EventRow {
		t.EventRow[i] = int32(d.uvarint())
	}
	t.Source = make([]int32, n)
	for i := range t.Source {
		t.Source[i] = int32(d.uvarint())
	}
	t.Interval = make([]int32, n)
	var prev int32
	for i := range t.Interval {
		prev += int32(d.uvarint())
		t.Interval[i] = prev
	}
	t.Delay = make([]int32, n)
	for i := range t.Delay {
		t.Delay[i] = int32(d.uvarint())
	}
	t.DocLen = make([]int32, n)
	for i := range t.DocLen {
		t.DocLen[i] = int32(d.uvarint())
	}
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
			out = putUvarint(out, uint64(len(ex)))
			out = append(out, ex...)
		}
	}
	return out
}

func decodeReport(b []byte) (*gdelt.ValidationReport, error) {
	d := &decoder{buf: b}
	r := &gdelt.ValidationReport{}
	n, ok := d.count(uint64(len(r.Counts)))
	if !ok {
		return nil, d.err
	}
	for i := 0; i < n; i++ {
		r.Counts[i] = int64(d.uvarint())
	}
	for i := 0; i < n; i++ {
		m, ok := d.count(1 << 20)
		if !ok {
			return nil, d.err
		}
		for j := 0; j < m; j++ {
			l := int(d.uvarint())
			r.Examples[i] = append(r.Examples[i], string(d.bytes(l)))
		}
	}
	return r, d.err
}
