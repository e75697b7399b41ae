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
	"gdeltmine/internal/retry"
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
	// Retry is the transient-failure retry schedule. The zero value means
	// retry.DefaultPolicy().
	Retry retry.Policy
	// MaxQuarantineFrac aborts the build with ErrTooManyQuarantined when
	// more than this fraction of master-listed chunks quarantine. Zero
	// means 1.0: always degrade gracefully, never abort.
	MaxQuarantineFrac float64
}

func (o Options) withDefaults(dir string) Options {
	if o.Source == nil {
		o.Source = ingest.Dir(dir)
	}
	if o.Retry.MaxAttempts == 0 {
		o.Retry = retry.DefaultPolicy()
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
// control: chunk reads go through opts.Source with transient errors retried
// per opts.Retry, permanent failures quarantine the chunk (the build
// completes partially, with the loss accounted in Result.Quarantined and
// the defect report), and a damage level above opts.MaxQuarantineFrac
// aborts with ErrTooManyQuarantined. Cancelling ctx stops the build between
// chunks.
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

	reader := &ingest.Reader{Src: opts.Source, Retry: opts.Retry}
	res := &Result{}
	quarantine := func(entry gdelt.MasterEntry, class gdelt.DefectClass, err error) {
		report.Record(class, entry.Path)
		res.Quarantined = append(res.Quarantined, QuarantinedChunk{Path: entry.Path, Class: class, Reason: err.Error()})
		mQuarantined.Inc()
	}
	seen := make(map[string]bool, len(ml.Entries))
	for _, entry := range ml.Entries {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if seen[entry.Path] {
			// A path listed twice would double-ingest its rows; keep the
			// first occurrence and file the repeat as a malformed entry.
			report.Record(gdelt.DefectMalformedMasterEntry, "duplicate master entry: "+entry.Path)
			continue
		}
		seen[entry.Path] = true
		data, err := reader.Read(ctx, entry)
		var ce *ingest.ChecksumError
		switch {
		case errors.As(err, &ce):
			report.Record(gdelt.DefectChecksumMismatch, entry.Path)
			// Parse it anyway; the checksum defect is informational and
			// covers truncated and corrupted deliveries too.
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			return nil, err
		case err != nil:
			// Permanently absent, unreadable, or transient past the retry
			// budget: quarantine and degrade.
			quarantine(entry, gdelt.DefectMissingArchive, err)
			continue
		}
		if err := ingestChunk(b, entry.Kind(), entry.Path, data); err != nil {
			quarantine(entry, gdelt.DefectBadRow, err)
			continue
		}
		res.Chunks++
		mChunks.Inc()
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

// ingestChunk parses one chunk file's rows into the builder. Unparseable
// rows are recorded as defects, not fatal errors — the paper's tool
// tolerates and tallies dirty rows.
func ingestChunk(b *store.Builder, kind, path string, data []byte) error {
	var fields [][]byte
	report := b.Report()
	for len(data) > 0 {
		var line []byte
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			line, data = data, nil
		}
		if len(line) == 0 {
			continue
		}
		fields = gdelt.SplitTabs(line, fields)
		switch kind {
		case "export":
			ev, err := gdelt.ParseEventFields(fields)
			if err != nil {
				report.Record(gdelt.DefectBadRow, fmt.Sprintf("%s: %v", path, err))
				continue
			}
			b.AddEvent(&ev)
		case "mentions":
			mn, err := gdelt.ParseMentionFields(fields)
			if err != nil {
				report.Record(gdelt.DefectBadRow, fmt.Sprintf("%s: %v", path, err))
				continue
			}
			b.AddMention(&mn)
		case "gkg":
			rec, err := gdelt.ParseGKGFields(fields)
			if err != nil {
				report.Record(gdelt.DefectBadRow, fmt.Sprintf("%s: %v", path, err))
				continue
			}
			b.AddGKG(&rec)
		default:
			return fmt.Errorf("convert: unknown chunk kind %q for %s", kind, path)
		}
	}
	return nil
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
