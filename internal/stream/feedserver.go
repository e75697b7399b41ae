package stream

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"

	"gdeltmine/internal/faults"
	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/ingest"
)

// FeedServer simulates the live GDELT feed over a raw dataset directory
// (as written by internal/gen.WriteRaw) and advances tick by tick under its
// caller's control. It is a Feed in-process — the replay a LiveRunner
// folds — and, through ServeHTTP, the real protocol: a /lastupdate.txt
// rewritten per 15-minute tick with the newest tick's "size crc32 path"
// lines, a cumulative /masterfilelist.txt, and the chunk files themselves.
// An optional faults.FeedChaos injects outages (lastupdate reports the feed
// down for the tick), duplicate ticks (lastupdate republishes the previous
// tick; the new one is only discoverable via the master list), and
// reordered drops (the tick's files land faults.DropDelay ticks late,
// surfacing in the master list after newer ticks were already advertised).
type FeedServer struct {
	src   ingest.Source
	chaos *faults.FeedChaos
	ticks []Tick
	byPth map[string]int // chunk file name -> tick index
	cur   atomic.Int64   // index of the newest published tick; -1 = nothing yet
}

// NewFeedServer reads the dataset's master list and groups its entries
// into ticks with Ticks.
func NewFeedServer(dir string, chaos *faults.FeedChaos) (*FeedServer, error) {
	f, err := os.Open(filepath.Join(dir, "masterfilelist.txt"))
	if err != nil {
		return nil, fmt.Errorf("stream: feed dataset: %w", err)
	}
	ml, err := gdelt.ReadMasterList(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	s := &FeedServer{src: ingest.Dir(dir), chaos: chaos, ticks: Ticks(ml), byPth: map[string]int{}}
	for i, tk := range s.ticks {
		for _, e := range tk.Entries {
			s.byPth[filepath.Base(e.Path)] = i
		}
	}
	s.cur.Store(-1)
	return s, nil
}

// Ticks returns how many feed ticks the dataset holds.
func (s *FeedServer) Ticks() int { return len(s.ticks) }

// Pos returns the index of the newest published tick (-1 before the first
// Advance).
func (s *FeedServer) Pos() int { return int(s.cur.Load()) }

// TickTS returns the timestamp of tick i.
func (s *FeedServer) TickTS(i int) gdelt.Timestamp { return s.ticks[i].TS }

// Advance publishes the next tick, reporting false once the feed is
// exhausted.
func (s *FeedServer) Advance() bool {
	for {
		cur := s.cur.Load()
		if cur >= int64(len(s.ticks))-1 {
			return false
		}
		if s.cur.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

func (s *FeedServer) fault(i int64) faults.FeedFault {
	return s.chaos.FaultFor(s.ticks[i].TS.String())
}

// published reports whether tick i's files are fetchable: normally as soon
// as the tick is current, but a dropped tick's files land DropDelay ticks
// late.
func (s *FeedServer) published(i, cur int64) bool {
	if i > cur {
		return false
	}
	if s.fault(i) == faults.FeedDrop && cur < i+faults.DropDelay {
		return false
	}
	return true
}

// LastUpdate returns the newest published tick's entries. Before the first
// tick it reports fs.ErrNotExist, during an outage ErrFeedDown.
func (s *FeedServer) LastUpdate(context.Context) ([]gdelt.MasterEntry, error) {
	cur := s.cur.Load()
	// An outage takes the endpoint down for the tick's whole stint at the
	// head of the feed.
	if cur >= 0 && s.fault(cur) == faults.FeedOutage {
		return nil, ErrFeedDown
	}
	for i := cur; i >= 0; i-- {
		switch {
		case i == cur && s.fault(i) == faults.FeedDuplicate:
			// Stale republish: the previous tick's lastupdate again.
			continue
		case !s.published(i, cur):
			continue
		}
		return s.ticks[i].Entries, nil
	}
	return nil, fmt.Errorf("stream: feed has no update yet: %w", fs.ErrNotExist)
}

// MasterList returns the entries of every published tick.
func (s *FeedServer) MasterList(context.Context) (*gdelt.MasterList, error) {
	cur := s.cur.Load()
	ml := &gdelt.MasterList{}
	for i := int64(0); i <= cur; i++ {
		if s.published(i, cur) {
			ml.Entries = append(ml.Entries, s.ticks[i].Entries...)
		}
	}
	return ml, nil
}

// ReadChunk returns a published chunk file's bytes; a chunk the feed does
// not serve (yet) reports fs.ErrNotExist.
func (s *FeedServer) ReadChunk(ctx context.Context, path string) ([]byte, error) {
	name := filepath.Base(path)
	i, ok := s.byPth[name]
	if !ok || !s.published(int64(i), s.cur.Load()) {
		return nil, fmt.Errorf("stream: feed chunk %s: %w", name, fs.ErrNotExist)
	}
	return s.src.ReadChunk(ctx, name)
}

// ServeHTTP serves the feed over the GDELT protocol: ErrFeedDown answers
// 503, a missing update or chunk 404.
func (s *FeedServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var ml *gdelt.MasterList
	var data []byte
	var err error
	switch name := filepath.Base(r.URL.Path); name {
	case "lastupdate.txt":
		var entries []gdelt.MasterEntry
		entries, err = s.LastUpdate(r.Context())
		ml = &gdelt.MasterList{Entries: entries}
	case "masterfilelist.txt":
		ml, err = s.MasterList(r.Context())
	default:
		data, err = s.ReadChunk(r.Context(), name)
	}
	switch {
	case errors.Is(err, ErrFeedDown):
		http.Error(w, "feed unavailable", http.StatusServiceUnavailable)
	case errors.Is(err, fs.ErrNotExist):
		http.Error(w, "not found", http.StatusNotFound)
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	case ml != nil:
		w.Header().Set("Content-Type", "text/plain")
		gdelt.WriteMasterList(w, ml)
	default:
		w.Write(data)
	}
}
