package gen

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/parallel"
)

// WriteResult summarizes a raw dataset written to disk.
type WriteResult struct {
	// Dir is the dataset directory.
	Dir string
	// MasterPath is the master file list path.
	MasterPath string
	// Chunks is the number of file-pair chunks covered by the master list.
	Chunks int
	// FilesPerChunk is 2 (export + mentions) or 3 when GKG is enabled.
	FilesPerChunk int
	// FilesWritten counts chunk files actually written.
	FilesWritten int
	// MissingFiles lists chunk files listed in the master but deliberately
	// not written (the Table II missing-archive defect).
	MissingFiles []string
	// MalformedLines is the number of injected malformed master lines.
	MalformedLines int
	// Bytes is the total size of written chunk files.
	Bytes int64
}

// MasterFileName is the name of the master file list within a dataset
// directory.
const MasterFileName = "masterfilelist.txt"

// InfoFileName is the name of the dataset metadata sidecar: two lines,
// "start <YYYYMMDDHHMMSS>" and "intervals <count>". Real GDELT has no such
// file — the converter falls back to inferring the span from the master
// list when it is absent — but carrying the exact span avoids padding the
// archive out to the last chunk boundary.
const InfoFileName = "dataset.info"

// WriteRaw writes the corpus as a raw GDELT dataset under dir: one
// Events/Mentions file pair per IntervalsPerFile capture intervals, plus the
// master file list. The configured defects are injected: malformed master
// lines, and master entries whose files are withheld.
//
// Chunks are rendered, checksummed and written on parallel.Ordered, up to
// parallel.DefaultWorkers() at a time, each from its own slice of the
// corpus. One consumer appends their master entries and tallies in chunk
// order, so the directory is byte-identical at every width.
func WriteRaw(c *Corpus, dir string) (*WriteResult, error) {
	cfg := c.World.Cfg
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("gen: creating dataset dir: %w", err)
	}
	res := &WriteResult{Dir: dir, MasterPath: filepath.Join(dir, MasterFileName)}

	totalIntervals := c.World.Days() * gdelt.IntervalsPerDay
	chunkIntervals := cfg.IntervalsPerFile
	numChunks := (totalIntervals + chunkIntervals - 1) / chunkIntervals
	res.Chunks = numChunks
	res.FilesPerChunk = 2
	if cfg.GKG {
		res.FilesPerChunk = 3
	}

	// Events are placed in the chunk of their first mention (their
	// DateAdded), mirroring how GDELT publishes an event when first seen.
	evOrder := make([]int32, len(c.Events))
	for i := range evOrder {
		evOrder[i] = int32(i)
	}
	sort.Slice(evOrder, func(a, b int) bool {
		return c.Events[evOrder[a]].FirstMention < c.Events[evOrder[b]].FirstMention
	})
	// Chunk k holds evOrder[evCut[k]:evCut[k+1]] and the mentions
	// c.Mentions[mnCut[k]:mnCut[k+1]], captured in its intervals.
	evCut := make([]int, numChunks+1)
	mnCut := make([]int, numChunks+1)
	for k, evPos, mnPos := 0, 0, 0; k < numChunks; k++ {
		chunkEnd := int32((k + 1) * chunkIntervals) // exclusive
		for evPos < len(evOrder) && c.Events[evOrder[evPos]].FirstMention < chunkEnd {
			evPos++
		}
		for mnPos < len(c.Mentions) && c.Mentions[mnPos].Interval < chunkEnd {
			mnPos++
		}
		evCut[k+1], mnCut[k+1] = evPos, mnPos
	}

	// Choose which master-listed files to withhold.
	missing := pickMissingFiles(cfg, numChunks)

	type chunkFiles struct {
		entries []gdelt.MasterEntry
		missing []string
		written int
		bytes   int64
	}
	render := func(_ context.Context, k int) (chunkFiles, error) {
		var out chunkFiles
		ts := c.IntervalTimestamp(int32(k * chunkIntervals))
		var data []byte
		emit := func(kind string) error {
			name := ts.String() + "." + kind + ".csv"
			out.entries = append(out.entries, gdelt.MasterEntry{
				Size:     int64(len(data)),
				Checksum: gdelt.Checksum32(data),
				Path:     name,
			})
			defer func() { data = data[:0] }()
			if missing[name] {
				out.missing = append(out.missing, name)
				return nil
			}
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				return fmt.Errorf("gen: writing chunk %s: %w", name, err)
			}
			out.written++
			out.bytes += int64(len(data))
			return nil
		}
		for _, i := range evOrder[evCut[k]:evCut[k+1]] {
			rec := c.EventRecord(int(i))
			data = append(gdelt.AppendEventRow(data, &rec), '\n')
		}
		if err := emit("export"); err != nil {
			return out, err
		}
		for j := mnCut[k]; j < mnCut[k+1]; j++ {
			rec := c.MentionRecord(j)
			data = append(gdelt.AppendMentionRow(data, &rec), '\n')
		}
		if err := emit("mentions"); err != nil {
			return out, err
		}
		if cfg.GKG {
			for j := mnCut[k]; j < mnCut[k+1]; j++ {
				rec := c.GKGRecord(j)
				data = append(gdelt.AppendGKGRow(data, &rec), '\n')
			}
			if err := emit("gkg"); err != nil {
				return out, err
			}
		}
		return out, nil
	}
	ml := &gdelt.MasterList{}
	err := parallel.Ordered(context.TODO(), numChunks, render, func(_ int, f chunkFiles) error {
		ml.Entries = append(ml.Entries, f.entries...)
		res.MissingFiles = append(res.MissingFiles, f.missing...)
		res.FilesWritten += f.written
		res.Bytes += f.bytes
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Malformed master lines, interleaved deterministically.
	for i := 0; i < cfg.DefectMalformedMaster; i++ {
		ml.Malformed = append(ml.Malformed, fmt.Sprintf("corrupt entry %d without proper fields", i))
	}
	res.MalformedLines = len(ml.Malformed)

	info := fmt.Sprintf("start %s\nintervals %d\n", gdelt.Timestamp(cfg.Start), totalIntervals)
	if err := os.WriteFile(filepath.Join(dir, InfoFileName), []byte(info), 0o644); err != nil {
		return nil, fmt.Errorf("gen: writing dataset info: %w", err)
	}

	f, err := os.Create(res.MasterPath)
	if err != nil {
		return nil, fmt.Errorf("gen: creating master list: %w", err)
	}
	w := bufio.NewWriter(f)
	if err := gdelt.WriteMasterList(w, ml); err != nil {
		f.Close()
		return nil, fmt.Errorf("gen: writing master list: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return res, nil
}

// pickMissingFiles chooses the chunk files to withhold, spread over the
// archive, alternating between export and mentions files.
func pickMissingFiles(cfg Config, numChunks int) map[string]bool {
	missing := make(map[string]bool, cfg.DefectMissingArchives)
	if cfg.DefectMissingArchives == 0 || numChunks == 0 {
		return missing
	}
	rng := rand.New(rand.NewSource(subSeed(cfg.Seed, 0xF11E)))
	chunkIntervals := cfg.IntervalsPerFile
	start := gdelt.Timestamp(cfg.Start).IntervalIndex()
	for len(missing) < cfg.DefectMissingArchives {
		chunk := rng.Intn(numChunks)
		ts := gdelt.IntervalStart(start + int64(chunk*chunkIntervals))
		kind := "export"
		if rng.Intn(2) == 0 {
			kind = "mentions"
		}
		missing[fmt.Sprintf("%s.%s.csv", ts, kind)] = true
	}
	return missing
}
