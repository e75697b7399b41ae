// Package convert implements the preprocessing pipeline of Section IV: it
// reads a raw GDELT dataset (master file list plus per-interval Events and
// Mentions chunk files), cleans and validates the data (Table II), and
// builds the in-memory columnar store — either directly, or by way of the
// indexed binary format in internal/binfmt.
package convert

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/ingest"
	"gdeltmine/internal/obs"
	"gdeltmine/internal/parallel"
	"gdeltmine/internal/store"
)

// Conversion observability: chunk throughput and the quarantine pressure
// gauge the stream/convert pipeline reports (a rising fraction means the
// feed is degrading toward the MaxQuarantineFrac abort threshold).
var (
	mChunks = obs.Default.Counter("convert_chunks_total",
		"chunk files successfully ingested")
	mQuarantined = obs.Default.Counter("convert_quarantined_chunks_total",
		"chunk files quarantined (build continued without them)")
	mQuarantineFrac = obs.Default.Gauge("convert_quarantine_frac",
		"quarantined fraction of master-listed chunks in the last build")
)

// QuarantinedChunk records one master-listed chunk that could not be
// ingested: the build went on without it, tallying it here and in the
// Table II defect report.
type QuarantinedChunk struct {
	// Path is the chunk path from the master list.
	Path string
	// Class is the defect class the failure was filed under.
	Class gdelt.DefectClass
	// Reason is the underlying error text.
	Reason string
}

// Result is the outcome of a conversion.
type Result struct {
	DB    *store.DB
	Stats store.BuildStats
	// Chunks is the number of chunk files successfully read.
	Chunks int
	// Quarantined lists the chunks the build completed without.
	Quarantined []QuarantinedChunk
}

// QuarantineFrac is the fraction of master-listed chunks that quarantined.
func (r *Result) QuarantineFrac() float64 {
	total := r.Chunks + len(r.Quarantined)
	if total == 0 {
		return 0
	}
	return float64(len(r.Quarantined)) / float64(total)
}

// ErrTooManyQuarantined is wrapped by FromRawDirOpts when the quarantined
// chunk fraction exceeds Options.MaxQuarantineFrac: the dataset is too
// damaged for a partial build to be meaningful.
var ErrTooManyQuarantined = errors.New("convert: quarantined chunk fraction exceeds threshold")

// Options configures a resilient conversion.
type Options struct {
	// Source supplies chunk bytes. Nil means reading from the dataset
	// directory.
	Source ingest.Source
	// MaxQuarantineFrac aborts the build with ErrTooManyQuarantined when
	// more than this fraction of master-listed chunks quarantine. Zero
	// means 1.0: always degrade gracefully, never abort.
	MaxQuarantineFrac float64
}

func (o Options) withDefaults(dir string) Options {
	if o.Source == nil {
		o.Source = ingest.Dir(dir)
	}
	if o.MaxQuarantineFrac == 0 {
		o.MaxQuarantineFrac = 1
	}
	return o
}

// FromRawDir reads the raw dataset under dir and builds the store. The span
// of the archive is inferred from the master list entries. Defects found on
// the way are recorded in the returned DB's Report, reproducing the Table II
// accounting.
func FromRawDir(dir string) (*Result, error) {
	return FromRawDirOpts(context.Background(), dir, Options{})
}

// FromRawDirOpts is FromRawDir with failure handling under the caller's
// control: chunk reads go through opts.Source, a failed read quarantines
// the chunk (the build completes partially, with the loss accounted in
// Result.Quarantined and the defect report), and a damage level above
// opts.MaxQuarantineFrac aborts with ErrTooManyQuarantined once every chunk
// has been read.
//
// Chunks are read and parsed on parallel.Ordered, up to
// parallel.DefaultWorkers() at a time. One consumer takes them in
// master-list order and records each chunk's outcome — its checksum
// defect, its rows and bad rows in file order, its quarantine — before it
// feeds the one Builder, so the store, the report and Result are the same
// at every width. Cancelling ctx stops the build between chunks: it
// returns ctx's error once every in-flight read has returned.
func FromRawDirOpts(ctx context.Context, dir string, opts Options) (*Result, error) {
	opts = opts.withDefaults(dir)
	f, err := os.Open(filepath.Join(dir, gen.MasterFileName))
	if err != nil {
		return nil, fmt.Errorf("convert: opening master list: %w", err)
	}
	ml, err := gdelt.ReadMasterList(bufio.NewReader(f))
	f.Close()
	if err != nil {
		return nil, err
	}
	if len(ml.Entries) == 0 {
		return nil, fmt.Errorf("convert: master list has no entries")
	}

	first, intervals, err := datasetSpan(dir, ml)
	if err != nil {
		return nil, err
	}

	b, err := store.NewBuilder(first, int32(intervals))
	if err != nil {
		return nil, err
	}
	report := b.Report()
	for _, line := range ml.Malformed {
		report.Record(gdelt.DefectMalformedMasterEntry, line)
	}

	// A path listed twice would double-ingest its rows; only its first
	// occurrence is read, and the repeat is filed as a malformed entry.
	dup := make([]bool, len(ml.Entries))
	seen := make(map[string]bool, len(ml.Entries))
	for i, entry := range ml.Entries {
		dup[i] = seen[entry.Path]
		seen[entry.Path] = true
	}

	read := func(ctx context.Context, i int) (*chunkRows, error) {
		entry := ml.Entries[i]
		ch := &chunkRows{}
		if dup[i] {
			return ch, nil
		}
		data, err := ingest.Read(ctx, opts.Source, entry)
		var ce *ingest.ChecksumError
		switch {
		case errors.As(err, &ce):
			// Parse it anyway; the checksum defect is informational and
			// covers truncated and corrupted deliveries too.
			ch.checksum = true
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			return nil, err
		case err != nil:
			// Absent or unreadable: quarantine and degrade.
			ch.quarantine = err
			return ch, nil
		}
		// Unparseable rows are tallied, not fatal: the paper's tool tolerates
		// dirty rows.
		ch.reserve(entry.Kind(), bytes.Count(data, []byte{'\n'})+1)
		_ = gdelt.ParseChunk(entry.Kind(), data, ch.sink(entry.Path)) // kind is known: ParseChunk cannot fail
		return ch, nil
	}

	res := &Result{}
	err = parallel.Ordered(ctx, len(ml.Entries), read, func(i int, ch *chunkRows) error {
		entry := ml.Entries[i]
		if dup[i] {
			report.Record(gdelt.DefectMalformedMasterEntry, "duplicate master entry: "+entry.Path)
			return nil
		}
		if ch.checksum {
			report.Record(gdelt.DefectChecksumMismatch, entry.Path)
		}
		ch.feed(b)
		if ch.quarantine != nil {
			report.Record(gdelt.DefectMissingArchive, entry.Path)
			res.Quarantined = append(res.Quarantined, QuarantinedChunk{Path: entry.Path, Class: gdelt.DefectMissingArchive, Reason: ch.quarantine.Error()})
			mQuarantined.Inc()
			return nil
		}
		res.Chunks++
		mChunks.Inc()
		return nil
	})
	if err != nil {
		return nil, err
	}
	mQuarantineFrac.Set(res.QuarantineFrac())
	if frac := res.QuarantineFrac(); frac > opts.MaxQuarantineFrac {
		return nil, fmt.Errorf("%w: %d of %d chunks (%.1f%% > %.1f%%)",
			ErrTooManyQuarantined, len(res.Quarantined), res.Chunks+len(res.Quarantined),
			frac*100, opts.MaxQuarantineFrac*100)
	}

	db, stats, err := b.Finish()
	if err != nil {
		return nil, err
	}
	res.DB = db
	res.Stats = stats
	return res, nil
}

// chunkRows is one master-listed chunk as a worker read and parsed it:
// the outcome the consumer records, in the order it records it.
type chunkRows struct {
	// checksum is set when the bytes differ from the master list's size or
	// CRC; they were parsed anyway.
	checksum bool
	// quarantine, when set, is why the chunk could not be read; it is
	// filed as a missing archive.
	quarantine error
	// The parsed rows of the chunk's one kind, in file order.
	events   []gdelt.Event
	mentions []gdelt.Mention
	gkg      []gdelt.GKGRecord
	// bad lists the rows that did not parse, each with the count of rows
	// that parsed before it.
	bad []badRow
}

type badRow struct {
	at   int
	text string
}

// reserve sizes the row slice of kind for at most rows rows, so a chunk's
// rows are copied once.
func (ch *chunkRows) reserve(kind string, rows int) {
	switch kind {
	case "export":
		ch.events = make([]gdelt.Event, 0, rows)
	case "mentions":
		ch.mentions = make([]gdelt.Mention, 0, rows)
	case "gkg":
		ch.gkg = make([]gdelt.GKGRecord, 0, rows)
	}
}

// sink collects ParseChunk's rows of the chunk at path.
func (ch *chunkRows) sink(path string) gdelt.ChunkSink {
	return gdelt.ChunkSink{
		Event:   func(ev gdelt.Event) { ch.events = append(ch.events, ev) },
		Mention: func(mn gdelt.Mention) { ch.mentions = append(ch.mentions, mn) },
		GKG:     func(rec gdelt.GKGRecord) { ch.gkg = append(ch.gkg, rec) },
		BadRow: func(err error) {
			at := len(ch.events) + len(ch.mentions) + len(ch.gkg)
			ch.bad = append(ch.bad, badRow{at, fmt.Sprintf("%s: %v", path, err)})
		},
	}
}

// feed hands the chunk's rows to b and files its bad rows in b's report,
// interleaved in file order as the serial walk met them: the builder
// files defects of its own for some rows it drops.
func (ch *chunkRows) feed(b *store.Builder) {
	row := 0
	upTo := func(n int) {
		for ; row < n; row++ {
			switch {
			case ch.events != nil:
				b.AddEvent(&ch.events[row])
			case ch.mentions != nil:
				b.AddMention(&ch.mentions[row])
			default:
				b.AddGKG(&ch.gkg[row])
			}
		}
	}
	for _, bad := range ch.bad {
		upTo(bad.at)
		b.Report().Record(gdelt.DefectBadRow, bad.text)
	}
	upTo(len(ch.events) + len(ch.mentions) + len(ch.gkg))
}

// datasetSpan determines the archive start and interval count: from the
// dataset.info sidecar when present, otherwise inferred from the master
// list (first chunk to the boundary after the last, using the chunk width
// implied by entry spacing).
func datasetSpan(dir string, ml *gdelt.MasterList) (gdelt.Timestamp, int64, error) {
	if data, err := os.ReadFile(filepath.Join(dir, gen.InfoFileName)); err == nil {
		var startStr string
		var intervals int64
		if _, err := fmt.Sscanf(string(data), "start %s\nintervals %d", &startStr, &intervals); err == nil {
			start, perr := gdelt.ParseTimestamp(startStr)
			if perr == nil && intervals > 0 {
				return start, intervals, nil
			}
		}
		return 0, 0, fmt.Errorf("convert: malformed %s", gen.InfoFileName)
	}
	first, err := ml.Entries[0].Interval()
	if err != nil {
		return 0, 0, err
	}
	last := first
	for _, e := range ml.Entries {
		iv, err := e.Interval()
		if err != nil {
			continue
		}
		if iv < first {
			first = iv
		}
		if iv > last {
			last = iv
		}
	}
	// The last chunk covers up to the next chunk boundary; derive the chunk
	// width from the spacing of entries (each chunk contributes two or
	// three files sharing one interval, so scan for the first distinct
	// timestamp).
	chunkIntervals := int64(gdelt.IntervalsPerDay)
	for _, e := range ml.Entries {
		iv, err := e.Interval()
		if err == nil && iv > first {
			chunkIntervals = iv.IntervalIndex() - first.IntervalIndex()
			break
		}
	}
	return first, last.IntervalIndex() - first.IntervalIndex() + chunkIntervals, nil
}

// FromCorpus builds the store directly from an in-memory synthetic corpus,
// bypassing raw files. This is the fast path for tests and benchmarks; the
// resulting store is identical to converting the written files of the same
// corpus except for the deliberately withheld (missing-archive) chunks.
// Mention tones are the written rows' two-decimal tones (gdelt.WireTone).
// Mentions and GKG records arrive as the corpus's lean rows: the builder
// reads none of the URLs and ids they leave out, so the store is also
// identical to one built from the full records.
func FromCorpus(c *gen.Corpus) (*Result, error) {
	start := gdelt.Timestamp(c.World.Cfg.Start)
	intervals := int32(c.World.Days() * gdelt.IntervalsPerDay)
	b, err := store.NewBuilder(start, intervals)
	if err != nil {
		return nil, err
	}
	withGKG := c.World.Cfg.GKG
	gkgRows, gkgThemes := 0, 0
	if withGKG {
		gkgRows = len(c.Mentions)
		for j := range c.Mentions {
			gkgThemes += int(c.Events[c.Mentions[j].Event].Notes.NumThemes)
		}
	}
	b.Reserve(len(c.Events), len(c.Mentions), gkgRows, gkgThemes)
	for i := range c.Events {
		ev := c.EventRecord(i)
		b.AddEvent(&ev)
	}
	var mn gdelt.Mention
	var rec gdelt.GKGRecord
	for j := range c.Mentions {
		c.LeanMentionRecord(j, &mn)
		b.AddMention(&mn)
		if withGKG {
			c.LeanGKGRecord(j, &rec)
			b.AddGKG(&rec)
		}
	}
	db, stats, err := b.Finish()
	if err != nil {
		return nil, err
	}
	return &Result{DB: db, Stats: stats}, nil
}
