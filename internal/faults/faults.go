// Package faults is a deterministic, seedable fault injector for the I/O
// layer of the pipeline — distinct from internal/gen's data-defect
// injector, which corrupts the *content* of an otherwise healthy dataset.
// This package corrupts the *delivery*: chunks go missing, arrive
// truncated or come back with flipped bytes, reproducing the feed failures
// the paper reports in Table II. It wraps any ingest.Source, so the exact same conversion or
// stream-replay code runs against a healthy directory and a hostile one.
package faults

import (
	"context"
	"fmt"
	"hash/fnv"
	"io/fs"
	"math/rand"
	"sync"

	"gdeltmine/internal/ingest"
)

// Fault enumerates the injectable delivery failures.
type Fault int

const (
	// None delivers the chunk untouched.
	None Fault = iota
	// Missing makes the chunk permanently absent (fs.ErrNotExist).
	Missing
	// Truncated delivers only a prefix of the chunk.
	Truncated
	// Corrupted delivers the chunk with bytes flipped (checksum breaks).
	Corrupted
)

var faultNames = map[Fault]string{
	None: "none", Missing: "missing", Truncated: "truncated", Corrupted: "corrupted",
}

func (f Fault) String() string {
	if s, ok := faultNames[f]; ok {
		return s
	}
	return fmt.Sprintf("Fault(%d)", int(f))
}

// Config assigns faults to chunk paths. Explicit Plan entries win; paths
// without one draw a fault from the probability fields using a hash of
// (Seed, path), so the assignment is deterministic, order-independent and
// stable across runs.
type Config struct {
	// Seed drives every pseudo-random choice. Zero is a valid seed.
	Seed int64
	// Plan pins specific paths to specific faults.
	Plan map[string]Fault
	// MissingProb, TruncatedProb and CorruptedProb are per-path
	// probabilities in [0, 1]; they are examined in that order against one
	// uniform draw, so their sum should stay at or below 1.
	MissingProb, TruncatedProb, CorruptedProb float64
	// TruncateFrac is the fraction of bytes kept by Truncated. Zero
	// means 0.5.
	TruncateFrac float64
}

// Injector wraps an ingest.Source and injects the configured faults.
type Injector struct {
	cfg  Config
	src  ingest.Source
	mu   sync.Mutex
	hits map[Fault]int // injected fault tally, for test assertions
}

// New returns an injector over src with the given config.
func New(src ingest.Source, cfg Config) *Injector {
	if cfg.TruncateFrac == 0 {
		cfg.TruncateFrac = 0.5
	}
	return &Injector{cfg: cfg, src: src, hits: make(map[Fault]int)}
}

// FaultFor returns the fault assigned to a path. The assignment is pure:
// it depends only on the config and the path.
func (in *Injector) FaultFor(path string) Fault {
	if f, ok := in.cfg.Plan[path]; ok {
		return f
	}
	u := in.unit(path, "assign")
	for _, c := range []struct {
		p float64
		f Fault
	}{
		{in.cfg.MissingProb, Missing},
		{in.cfg.TruncatedProb, Truncated},
		{in.cfg.CorruptedProb, Corrupted},
	} {
		if u < c.p {
			return c.f
		}
		u -= c.p
	}
	return None
}

// unit returns a deterministic uniform draw in [0, 1) for (path, label).
func (in *Injector) unit(path, label string) float64 {
	return unitDraw(in.cfg.Seed, label, path)
}

// unitDraw is the shared deterministic uniform draw for (seed, label, key):
// a pure function, so fault assignment never depends on evaluation order.
func unitDraw(seed int64, label, key string) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s", seed, label, key)
	return rand.New(rand.NewSource(int64(h.Sum64()))).Float64()
}

// Stats returns how many reads each fault class intercepted so far.
func (in *Injector) Stats() map[Fault]int {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[Fault]int, len(in.hits))
	for f, n := range in.hits {
		out[f] = n
	}
	return out
}

func (in *Injector) record(f Fault) {
	in.mu.Lock()
	in.hits[f]++
	in.mu.Unlock()
}

// ReadChunk implements ingest.Source.
func (in *Injector) ReadChunk(ctx context.Context, path string) ([]byte, error) {
	switch f := in.FaultFor(path); f {
	case Missing:
		in.record(f)
		return nil, fmt.Errorf("faults: %s: %w", path, fs.ErrNotExist)
	case Truncated:
		data, err := in.src.ReadChunk(ctx, path)
		if err != nil {
			return nil, err
		}
		in.record(f)
		return data[:int(float64(len(data))*in.cfg.TruncateFrac)], nil
	case Corrupted:
		data, err := in.src.ReadChunk(ctx, path)
		if err != nil {
			return nil, err
		}
		in.record(f)
		out := append([]byte(nil), data...)
		// Flip a deterministic handful of bytes.
		rng := rand.New(rand.NewSource(int64(fnvHash(path)) ^ in.cfg.Seed))
		for i := 0; i < 4 && len(out) > 0; i++ {
			out[rng.Intn(len(out))] ^= 0xFF
		}
		return out, nil
	}
	return in.src.ReadChunk(ctx, path)
}

func fnvHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
