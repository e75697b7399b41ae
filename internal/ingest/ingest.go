// Package ingest abstracts how raw GDELT chunk files reach the pipeline: a
// Source yields chunk bytes by path, and Read checks them against their
// master-list entry, the verification the batch converter and the stream
// monitor share. Fault injection (internal/faults) and the real filesystem
// plug in behind the same interface, so every delivery failure of Table II
// is exercisable in tests.
package ingest

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"gdeltmine/internal/gdelt"
)

// Source yields the bytes of one chunk file. Implementations must be safe
// for concurrent use.
type Source interface {
	ReadChunk(ctx context.Context, path string) ([]byte, error)
}

// dirSource reads chunks from a dataset directory on the real filesystem.
type dirSource struct{ dir string }

// Dir returns a Source reading chunk files under the dataset directory.
func Dir(dir string) Source { return dirSource{dir: dir} }

func (s dirSource) ReadChunk(ctx context.Context, path string) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(s.dir, path))
	if err != nil {
		return nil, err
	}
	return data, nil
}

// memSource serves chunks from a map, for tests and in-process replays.
type memSource struct{ chunks map[string][]byte }

// Mem returns a Source serving the given path → bytes map. Absent paths
// report fs.ErrNotExist.
func Mem(chunks map[string][]byte) Source { return memSource{chunks: chunks} }

func (s memSource) ReadChunk(ctx context.Context, path string) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	data, ok := s.chunks[path]
	if !ok {
		return nil, fmt.Errorf("ingest: %s: %w", path, fs.ErrNotExist)
	}
	return data, nil
}

// ChecksumError reports a chunk whose bytes do not match the master-list
// size or checksum. The partially usable data is carried along: the paper's
// tool records the defect and parses what it got.
type ChecksumError struct {
	Path string
	// WantSize/GotSize and WantSum/GotSum describe the mismatch.
	WantSize, GotSize int64
	WantSum, GotSum   string
}

func (e *ChecksumError) Error() string {
	return fmt.Sprintf("ingest: %s: size %d/%d checksum %s/%s", e.Path, e.GotSize, e.WantSize, e.GotSum, e.WantSum)
}

// Read fetches the chunk named by entry from src and verifies its size and
// checksum. A mismatch returns the data together with a *ChecksumError so
// the caller can both record the defect and parse the bytes. A failed read
// returns a nil slice and the source's error.
func Read(ctx context.Context, src Source, entry gdelt.MasterEntry) ([]byte, error) {
	data, err := src.ReadChunk(ctx, entry.Path)
	if err != nil {
		return nil, err
	}
	if int64(len(data)) != entry.Size || gdelt.Checksum32(data) != entry.Checksum {
		return data, &ChecksumError{
			Path:     entry.Path,
			WantSize: entry.Size, GotSize: int64(len(data)),
			WantSum: entry.Checksum, GotSum: gdelt.Checksum32(data),
		}
	}
	return data, nil
}
