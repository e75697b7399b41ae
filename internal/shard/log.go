package shard

import (
	"fmt"
	"io"
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
	mSealBytes = obs.Default.Counter("shard_log_seal_written_bytes_total",
		"bytes of part files and manifests durable seals wrote")
	mSealParts = obs.Default.Counter("shard_log_seal_parts_written_total",
		"part files durable seals wrote")
	mManifestBytes = obs.Default.Gauge("shard_log_manifest_bytes",
		"size of the append log's manifest as last persisted")
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
// new world with the crash-safe protocol below before publishing it. A
// seal writes only the two parts it creates; the per-event metadata an
// append changes in older parts' copies reaches disk through the newer
// part that holds the event, and OpenLog copies it back down
// (reconcileEventMeta) — so no single part file of a log is authoritative
// for per-event metadata.
type Log struct {
	mu  sync.Mutex
	cur atomic.Pointer[DB]
	dir string // "" = in-memory log, never persisted
	gen uint64 // generation stamp for freshly written part files
	// files are the part files' basenames and digests, aligned with the
	// current parts. Their Lo and Hi are not kept: a manifest takes the
	// ranges from the world's bounds.
	files []ManifestEntry
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
	lg := &Log{}
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
	files := make([]ManifestEntry, db.K())
	changed := make([]int, db.K())
	for i := range files {
		files[i].File = partFileName(lg.gen, i)
		changed[i] = i
	}
	if _, err := lg.persist(db, files, changed); err != nil {
		return nil, err
	}
	lg.files = files
	return lg, nil
}

// OpenLog loads a persisted append log, checking every part file against
// its manifest digest before decoding it. Because the persist protocol never
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
	for i, e := range entries {
		if e.File != filepath.Base(e.File) || e.File == "." || e.File == "" {
			return nil, fmt.Errorf("shard: log manifest entry file %q escapes the log directory", e.File)
		}
		p, err := readPart(filepath.Join(dir, e.File), e.Digest)
		if err != nil {
			return nil, fmt.Errorf("shard: log part %d (%s): %w", i, e.File, err)
		}
		parts[i] = p
	}
	reconcileEventMeta(parts)
	db, err := AssembleSharded(m, parts)
	if err != nil {
		return nil, err
	}
	lg := &Log{dir: dir, files: entries}
	lg.cur.Store(db)
	mLogParts.Set(float64(db.K()))
	lg.gen = scanMaxGen(dir, entries)
	lg.gc()
	return lg, nil
}

// reconcileEventMeta overwrites the per-event metadata (NumArticles,
// FirstMention, Interval) of every copy of an event with the values of the
// copy in the highest-indexed part holding it. parts are a log's loaded
// part files in time order; their event tables are merged by id in one
// pass.
//
// Why the last holder is right: metadata changes only when a tick mentions
// the event, the tick lands in the tail, and the tail holds the event from
// then on (it adopts the event if it had no copy). The next seal slices
// every tail mention into the sealed part it writes, with the event's
// current values, and every part above it — the fresh tail, written by the
// same seal — holds current values too. Older part files are never
// rewritten, so they may hold stale copies, but always below a current one.
// An event no tick has changed since a file was written has the same values
// in every copy written since.
func reconcileEventMeta(parts []*store.DB) {
	cur := make([]int, len(parts))
	for {
		id, last := int64(0), -1
		for i, p := range parts {
			if r := cur[i]; r < p.Events.Len() && (last < 0 || p.Events.ID[r] <= id) {
				id, last = p.Events.ID[r], i
			}
		}
		if last < 0 {
			return
		}
		src, sr := &parts[last].Events, cur[last]
		for i := 0; i <= last; i++ {
			ev, r := &parts[i].Events, cur[i]
			if r < ev.Len() && ev.ID[r] == id {
				ev.NumArticles[r], ev.FirstMention[r], ev.Interval[r] = src.NumArticles[sr], src.FirstMention[sr], src.Interval[sr]
				cur[i]++
			}
		}
	}
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
	next, st, err := lg.cur.Load().appendTail(evs, mns)
	if err != nil {
		return st, err
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
		// Write only the two parts born from the old tail, under fresh
		// generation-stamped names. Older part files stay as they are even
		// where appends changed their events' metadata in memory (see
		// reconcileEventMeta).
		ti := len(lg.files) - 1
		files := append(lg.files[:ti:ti],
			ManifestEntry{File: partFileName(lg.gen, ti)}, ManifestEntry{File: partFileName(lg.gen, ti+1)})
		manifestBytes, err := lg.persist(next, files, []int{ti, ti + 1})
		if err != nil {
			return false, err
		}
		// The old tail's file is dead; removal is best-effort cleanup (a
		// crash here leaves it for OpenLog's GC).
		os.Remove(filepath.Join(lg.dir, lg.files[ti].File))
		lg.files = files
		mSealBytes.Add(files[ti].Size + files[ti+1].Size + manifestBytes)
		mSealParts.Add(2)
	}
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
// dying at that exact point. Each changed part's digest is recorded in
// files[i] as it is written; the manifest records every part's. Returns
// the manifest's size in bytes.
func (lg *Log) persist(db *DB, files []ManifestEntry, changed []int) (int64, error) {
	for _, i := range changed {
		final := filepath.Join(lg.dir, files[i].File)
		d, err := writeFileSteps(lg.hook, OpWritePart, OpSyncPart, OpRenamePart, final, func(w io.Writer) error {
			return binfmt.Write(w, db.parts[i])
		})
		if err != nil {
			return 0, fmt.Errorf("shard: persisting part %s: %w", files[i].File, err)
		}
		files[i].Digest = d
	}
	m, err := ManifestFromDB(db, files)
	if err != nil {
		return 0, err
	}
	final := filepath.Join(lg.dir, LogManifestName)
	d, err := writeFileSteps(lg.hook, OpWriteManifest, OpSyncManifest, OpRenameManifest, final, func(w io.Writer) error {
		return EncodeManifest(w, m)
	})
	if err != nil {
		return 0, fmt.Errorf("shard: persisting manifest: %w", err)
	}
	if lg.hook != nil {
		if err := lg.hook(OpSyncDir, lg.dir); err != nil {
			return 0, err
		}
	}
	if err := syncDir(lg.dir); err != nil {
		return 0, fmt.Errorf("shard: syncing log dir: %w", err)
	}
	mManifestBytes.Set(float64(d.Size))
	return d.Size, nil
}

// writeFileSteps runs one write/sync/rename leg of the persist protocol:
// write the payload to <final>.tmp, fsync it, rename into place — each
// step gated by the hook. It returns the digest of the bytes written.
func writeFileSteps(hook StepHook, writeOp, syncOp, renameOp, final string, write func(io.Writer) error) (Digest, error) {
	tmp := final + ".tmp"
	if hook != nil {
		if err := hook(writeOp, tmp); err != nil {
			return Digest{}, err
		}
	}
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return Digest{}, err
	}
	dw := &digestWriter{w: f}
	if err := write(dw); err != nil {
		f.Close()
		return Digest{}, err
	}
	if hook != nil {
		if err := hook(syncOp, tmp); err != nil {
			f.Close()
			return Digest{}, err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return Digest{}, err
	}
	if err := f.Close(); err != nil {
		return Digest{}, err
	}
	if hook != nil {
		if err := hook(renameOp, final); err != nil {
			return Digest{}, err
		}
	}
	return dw.d, os.Rename(tmp, final)
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
func scanMaxGen(dir string, files []ManifestEntry) uint64 {
	var max uint64
	for _, f := range files {
		if g, ok := parseGen(f.File); ok && g > max {
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
		refd[f.File] = true
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
