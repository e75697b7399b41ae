package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gdeltmine/internal/binfmt"
	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/obs"
	"gdeltmine/internal/store"
)

var (
	mAppendSeconds = obs.Default.Histogram("shard_log_append_seconds",
		"wall time of one Log.Append: tail clone, fold, index rebuild, publish", obs.LatencyBuckets)
	mLogParts = obs.Default.Gauge("shard_log_parts",
		"parts (sealed + tail) in the append log's current world")
)

// Log is the partitioned append log behind production-cadence streaming:
// a time-sharded world whose last part is a mutable tail. 15-minute feed
// ticks fold into the tail through DB.appendTail; a compactor
// (internal/stream.Compactor) periodically seals the tail past a size/age
// threshold, rewriting it into an immutable sorted part with fully rebuilt
// derived indexes and opening a fresh tail over the remaining interval
// range.
//
// Concurrency contract (snapshot isolation): readers call Snapshot and
// query the returned world with no coordination whatsoever; writers
// (Append, Seal) serialize on an internal mutex and publish complete new
// worlds with an atomic pointer swap. A published snapshot is never
// mutated — Append builds the next world as a copy that shares what the
// tick leaves alone and replaces what it changes (see DB.appendTail for
// the sharing rules), and Seal only slices fresh parts out of the old tail
// — so a query running against an old snapshot keeps seeing the world it
// started on, and the per-shard version vectors embedded in qcache keys
// keep results from different snapshots apart: the fold bumps only the
// new tail's version, so cached answers for tail-overlapping windows go
// stale while cold-window entries stay warm.
//
// Durability contract: appended ticks live in memory only; recovery after
// a crash is the stream checkpoint plus masterfile catch-up (the live
// poller re-folds ticks the checkpoint has not marked). Seal is the
// durability point: when the log has a directory, every seal persists the
// new world with the crash-safe protocol below before publishing it.
type Log struct {
	mu    sync.Mutex
	cur   atomic.Pointer[DB]
	dir   string   // "" = in-memory log, never persisted
	gen   uint64   // generation stamp for freshly written part files
	files []string // part file basenames aligned with the current parts
	dirty []bool   // non-tail parts whose persisted image went stale
	hook  StepHook
}

// StepHook observes — and can abort — each step of the crash-safe persist
// protocol. internal/faults.FSPlan implements it to kill the compactor
// deterministically at every write/rename/fsync point; a hook error aborts
// the seal with the old world still published and the old manifest still
// on disk.
type StepHook func(op, path string) error

// Persist protocol step names, in execution order: for each part file not
// carried over from the previous generation, write-part / sync-part /
// rename-part; then write-manifest / sync-manifest / rename-manifest /
// sync-dir.
const (
	OpWritePart      = "write-part"
	OpSyncPart       = "sync-part"
	OpRenamePart     = "rename-part"
	OpWriteManifest  = "write-manifest"
	OpSyncManifest   = "sync-manifest"
	OpRenameManifest = "rename-manifest"
	OpSyncDir        = "sync-dir"
)

// LogManifestName is the manifest basename of a persisted append log.
const LogManifestName = "MANIFEST.gdsm"

// NewLog returns an in-memory append log over an initial world. Nothing is
// ever written to disk; Seal only swaps snapshots.
func NewLog(db *DB) *Log {
	lg := &Log{dirty: make([]bool, db.K())}
	lg.cur.Store(db)
	mLogParts.Set(float64(db.K()))
	return lg
}

// CreateLog persists an initial world under dir (created if needed) and
// returns a durable log: every subsequent Seal rewrites the manifest
// crash-safely.
func CreateLog(dir string, db *DB) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("shard: creating log dir: %w", err)
	}
	lg := NewLog(db)
	lg.dir = dir
	lg.mu.Lock()
	defer lg.mu.Unlock()
	lg.gen = 1
	files := make([]string, db.K())
	changed := make([]int, db.K())
	for i := range files {
		files[i] = partFileName(lg.gen, i)
		changed[i] = i
	}
	if err := lg.persist(db, files, changed); err != nil {
		return nil, err
	}
	lg.files = files
	return lg, nil
}

// OpenLog loads a persisted append log. Because the persist protocol never
// touches files the published manifest references, the directory always
// holds a loadable world: fully-old if a seal crashed before the manifest
// rename, fully-new after it. Stray files an interrupted seal left behind
// (unreferenced generation-stamped parts, orphaned temp files) are removed.
func OpenLog(dir string) (*Log, error) {
	mpath := filepath.Join(dir, LogManifestName)
	f, err := os.Open(mpath)
	if err != nil {
		return nil, fmt.Errorf("shard: opening log manifest: %w", err)
	}
	m, err := DecodeManifest(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("shard: log manifest: %w", err)
	}
	// AssembleSharded orders parts by entry Lo; keep the file list aligned
	// by sorting the entries the same way first.
	entries := append([]ManifestEntry(nil), m.Entries...)
	sort.SliceStable(entries, func(a, b int) bool { return entries[a].Lo < entries[b].Lo })
	parts := make([]*store.DB, len(entries))
	files := make([]string, len(entries))
	for i, e := range entries {
		if e.File != filepath.Base(e.File) || e.File == "." || e.File == "" {
			return nil, fmt.Errorf("shard: log manifest entry file %q escapes the log directory", e.File)
		}
		files[i] = e.File
		p, err := binfmt.ReadFile(filepath.Join(dir, e.File))
		if err != nil {
			return nil, fmt.Errorf("shard: log part %d (%s): %w", i, e.File, err)
		}
		parts[i] = p
	}
	db, err := AssembleSharded(m, parts)
	if err != nil {
		return nil, err
	}
	lg := &Log{dir: dir, files: files, dirty: make([]bool, len(files))}
	lg.cur.Store(db)
	mLogParts.Set(float64(db.K()))
	lg.gen = scanMaxGen(dir, files)
	lg.gc()
	return lg, nil
}

// Snapshot returns the current published world. The result is immutable:
// it never changes under the caller, no matter how many appends and seals
// happen after.
func (lg *Log) Snapshot() *DB { return lg.cur.Load() }

// SetStepHook installs a persist-protocol observer (crash harness only).
func (lg *Log) SetStepHook(h StepHook) {
	lg.mu.Lock()
	lg.hook = h
	lg.mu.Unlock()
}

// Dir returns the log directory, or "" for an in-memory log.
func (lg *Log) Dir() string { return lg.dir }

// Gen returns the generation stamp of the most recently written part files.
func (lg *Log) Gen() uint64 {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	return lg.gen
}

// TailRows returns the number of mention rows in the current tail — the
// compactor's size signal.
func (lg *Log) TailRows() int { return lg.Snapshot().Tail().Mentions.Len() }

// TailSpan returns how many capture intervals of data the current tail
// holds (first to last mention, inclusive) — the compactor's age signal.
// An empty tail spans 0.
func (lg *Log) TailSpan() int32 {
	t := lg.Snapshot().Tail()
	n := t.Mentions.Len()
	if n == 0 {
		return 0
	}
	return t.Mentions.Interval[n-1] - t.Mentions.Interval[0] + 1
}

// Append folds one feed tick into the tail and publishes the resulting
// world. Readers holding the previous snapshot are untouched: the next
// world shares with it everything the tick leaves alone and holds private
// copies of what the tick changes (DB.appendTail), so the work is
// proportional to the tick and the compactor-bounded tail, not to the
// sealed world. The new tail carries the old tail's version plus one.
// Appended ticks are in memory only until the next Seal.
func (lg *Log) Append(evs []gdelt.Event, mns []gdelt.Mention) (store.AppendStats, error) {
	start := time.Now()
	lg.mu.Lock()
	defer lg.mu.Unlock()
	next, st, dirtied, err := lg.cur.Load().appendTail(evs, mns)
	if err != nil {
		return st, err
	}
	// The fold propagated per-event metadata into these parts' copies of
	// touched events; the next seal must rewrite their persisted image too
	// (the on-disk copy just went stale).
	for _, i := range dirtied {
		lg.dirty[i] = true
	}
	lg.cur.Store(next)
	mAppendSeconds.ObserveSince(start)
	return st, nil
}

// Seal closes the current tail: every filled interval (up to and including
// the tail's last mention) is re-sliced into a new immutable part with
// fully rebuilt derived indexes, and a fresh tail takes over the remaining
// interval range. Both new parts inherit the old tail's version — safe for
// cache keys, because data only changes through appends and each append
// bumps the tail version, so a key minted before the seal either matches
// identical data or embeds a version the world has moved past. Returns
// false without error when there is nothing to seal: an empty tail, or a
// tail whose data already reaches the end of the archive (no interval
// range would remain for a successor).
//
// On a durable log the new world is persisted before it is published,
// using the crash-safe protocol (see persist); a persist error leaves both
// the published snapshot and the on-disk manifest at the old world.
func (lg *Log) Seal() (bool, error) {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	cur := lg.cur.Load()
	tail := cur.parts[len(cur.parts)-1]
	n := tail.Mentions.Len()
	if n == 0 {
		return false, nil
	}
	cut := tail.Mentions.Interval[n-1] + 1
	if cut >= cur.meta.Intervals {
		return false, nil
	}
	tailLo := cur.bounds[len(cur.bounds)-2]
	sealed, err := slice(tail, tailLo, cut)
	if err != nil {
		return false, fmt.Errorf("shard: sealing [%d, %d): %w", tailLo, cut, err)
	}
	fresh, err := slice(tail, cut, cur.meta.Intervals)
	if err != nil {
		return false, fmt.Errorf("shard: opening fresh tail [%d, %d): %w", cut, cur.meta.Intervals, err)
	}
	v := tail.Version()
	sealed.SetVersion(v)
	fresh.SetVersion(v)

	next, err := cur.replaceTail(sealed, fresh, cut)
	if err != nil {
		return false, fmt.Errorf("shard: rebuilding sharded view for seal: %w", err)
	}
	parts := next.parts

	if lg.dir != "" {
		// A failed attempt may leave temp files behind; never reuse its
		// generation, so a retry cannot collide with them. OpenLog's GC
		// sweeps the strays.
		lg.gen++
		// Rewrite the two parts born from the old tail plus every non-tail
		// part whose event metadata appends dirtied — all under fresh
		// generation-stamped names, never over files the published
		// manifest references.
		files := append([]string(nil), lg.files[:len(lg.files)-1]...)
		var changed []int
		for i, d := range lg.dirty {
			if d && i < len(files) {
				files[i] = partFileName(lg.gen, i)
				changed = append(changed, i)
			}
		}
		files = append(files, partFileName(lg.gen, len(parts)-2), partFileName(lg.gen, len(parts)-1))
		changed = append(changed, len(parts)-2, len(parts)-1)
		if err := lg.persist(next, files, changed); err != nil {
			return false, err
		}
		// Files the new manifest no longer references are dead; removal is
		// best-effort cleanup (a crash here leaves them for OpenLog's GC).
		for i, old := range lg.files {
			if i >= len(files) || files[i] != old {
				os.Remove(filepath.Join(lg.dir, old))
			}
		}
		lg.files = files
	}
	lg.dirty = make([]bool, len(parts))
	lg.cur.Store(next)
	mLogParts.Set(float64(len(parts)))
	return true, nil
}

// persist writes a new world to the log directory with the crash-safe
// protocol. Changed parts land under fresh generation-stamped names —
// never under a name the published manifest references — so every
// intermediate state leaves the old manifest loadable over untouched
// files. Each file is written to a temp name, fsynced, then renamed; the
// manifest goes last the same way; finally the directory is fsynced so the
// manifest rename itself is durable. A crash before the manifest rename
// leaves the old world, after it the new world — never a torn mix. Every
// step consults the hook first, which is how the crash harness simulates
// dying at that exact point.
func (lg *Log) persist(db *DB, files []string, changed []int) error {
	m, err := ManifestFromDB(db, files)
	if err != nil {
		return err
	}
	for _, i := range changed {
		final := filepath.Join(lg.dir, files[i])
		if err := writeFileSteps(lg.hook, OpWritePart, OpSyncPart, OpRenamePart, final, func(f *os.File) error {
			return binfmt.Write(f, db.parts[i])
		}); err != nil {
			return fmt.Errorf("shard: persisting part %s: %w", files[i], err)
		}
	}
	final := filepath.Join(lg.dir, LogManifestName)
	if err := writeFileSteps(lg.hook, OpWriteManifest, OpSyncManifest, OpRenameManifest, final, func(f *os.File) error {
		return EncodeManifest(f, m)
	}); err != nil {
		return fmt.Errorf("shard: persisting manifest: %w", err)
	}
	if lg.hook != nil {
		if err := lg.hook(OpSyncDir, lg.dir); err != nil {
			return err
		}
	}
	if err := syncDir(lg.dir); err != nil {
		return fmt.Errorf("shard: syncing log dir: %w", err)
	}
	return nil
}

// writeFileSteps runs one write/sync/rename leg of the persist protocol:
// write the payload to <final>.tmp, fsync it, rename into place — each
// step gated by the hook.
func writeFileSteps(hook StepHook, writeOp, syncOp, renameOp, final string, write func(*os.File) error) error {
	tmp := final + ".tmp"
	if hook != nil {
		if err := hook(writeOp, tmp); err != nil {
			return err
		}
	}
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if hook != nil {
		if err := hook(syncOp, tmp); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if hook != nil {
		if err := hook(renameOp, final); err != nil {
			return err
		}
	}
	return os.Rename(tmp, final)
}

// syncDir fsyncs a directory so a rename inside it survives a power cut.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// partFileName names a part file: generation stamp + shard index. The
// generation guarantees a seal never writes under a name any earlier
// manifest references.
func partFileName(gen uint64, idx int) string {
	return fmt.Sprintf("part-g%d-%d.gdmb", gen, idx)
}

// parseGen extracts the generation stamp from a part file name (with or
// without a trailing .tmp).
func parseGen(name string) (uint64, bool) {
	rest, ok := strings.CutPrefix(name, "part-g")
	if !ok {
		return 0, false
	}
	i := strings.IndexByte(rest, '-')
	if i <= 0 {
		return 0, false
	}
	g, err := strconv.ParseUint(rest[:i], 10, 64)
	if err != nil {
		return 0, false
	}
	return g, true
}

// scanMaxGen finds the highest generation present in the directory —
// including strays from an interrupted seal, so the next seal starts past
// all of them — and never below the referenced files' generations.
func scanMaxGen(dir string, files []string) uint64 {
	var max uint64
	for _, f := range files {
		if g, ok := parseGen(f); ok && g > max {
			max = g
		}
	}
	if ents, err := os.ReadDir(dir); err == nil {
		for _, e := range ents {
			if g, ok := parseGen(e.Name()); ok && g > max {
				max = g
			}
		}
	}
	return max
}

// gc removes files an interrupted seal abandoned: temp files and
// generation-stamped parts the current manifest does not reference. Only
// names matching the log's own naming scheme are touched.
func (lg *Log) gc() {
	refd := map[string]bool{LogManifestName: true}
	for _, f := range lg.files {
		refd[f] = true
	}
	ents, err := os.ReadDir(lg.dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || refd[name] {
			continue
		}
		_, isPart := parseGen(name)
		if strings.HasSuffix(name, ".tmp") || (isPart && strings.HasSuffix(name, ".gdmb")) {
			os.Remove(filepath.Join(lg.dir, name))
		}
	}
}
