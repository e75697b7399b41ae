package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"time"
)

// entry is one distinct request of a catalogue.
type entry struct {
	kind  string
	query url.Values
	path  string // "/api/v1/<kind>?<query>"
}

func newEntry(kind string, q url.Values) entry {
	e := entry{kind: kind, query: q, path: "/api/v1/" + kind}
	if len(q) > 0 {
		e.path += "?" + q.Encode()
	}
	return e
}

// popularity fixes which catalogue entry holds which Zipf rank. The order
// is a constant shuffle, not a function of the run seed: the seed drives
// the draws (and the corpus), while the hot set stays the same entries on
// every run — otherwise a seed that happens to make an expensive kind the
// hottest key would move the latency metrics by more than any code change.
func popularity(n int) []int {
	return rand.New(rand.NewSource(20200518)).Perm(n)
}

// loadClients is the number of closed-loop HTTP clients: at most nproc,
// and the issue fixes it at 2.
const loadClients = 2

// loadResult is what one closed-loop HTTP window observed.
type loadResult struct {
	elapsed   float64   // seconds from first send to last reply
	latMS     []float64 // every OK request, send to last body byte
	missMS    []float64 // the subset answered with X-Cache: miss
	missKind  map[string][]float64
	attempted int
	failed    int
	hits      int // X-Cache: hit or coalesced
	misses    int
	bodies    map[int][]byte // first body seen per catalogue entry
	firstErr  error
}

// runLoad drives baseURL with loadClients keep-alive connections for dur.
// Every client is a closed loop: it draws a Zipf rank from its own seeded
// stream, sends, waits for the whole body, then draws again. A non-200, a
// transport error, or an answer that differs from the first one seen for
// the same entry counts as failed. With a tracer each request is a root span
// whose id travels in the span header.
func runLoad(baseURL string, cat []entry, z *zipf, seed int64, dur time.Duration, tr *tracer) loadResult {
	perm := popularity(len(cat))
	results := make([]loadResult, loadClients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < loadClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := &results[c]
			res.bodies = map[int][]byte{}
			res.missKind = map[string][]float64{}
			rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
			tp := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tp.CloseIdleConnections()
			client := &http.Client{Transport: tp}
			var buf bytes.Buffer
			for time.Now().Before(deadline) {
				idx := perm[z.draw(rng)]
				res.attempted++
				req, err := http.NewRequest(http.MethodGet, baseURL+cat[idx].path, nil)
				if err != nil {
					res.fail(err)
					continue
				}
				var sp *liveSpan
				if tr != nil {
					sp = tr.start(spanRef{}, spanRequest)
					req.Header.Set(spanHeader, sp.ref().header())
				}
				t0 := time.Now()
				resp, err := client.Do(req)
				if err != nil {
					res.fail(err)
					continue
				}
				buf.Reset()
				_, err = buf.ReadFrom(resp.Body)
				resp.Body.Close()
				ms := float64(time.Since(t0)) / 1e6
				if sp != nil {
					sp.end()
				}
				switch {
				case err != nil:
					res.fail(err)
					continue
				case resp.StatusCode != http.StatusOK:
					res.fail(fmt.Errorf("%s: status %d: %s", cat[idx].path, resp.StatusCode, bytes.TrimSpace(buf.Bytes())))
					continue
				}
				if first, ok := res.bodies[idx]; !ok {
					res.bodies[idx] = append([]byte(nil), buf.Bytes()...)
				} else if err := sameAnswer(first, buf.Bytes()); err != nil {
					res.fail(fmt.Errorf("%s: answer changed between requests: %w", cat[idx].path, err))
					continue
				}
				res.latMS = append(res.latMS, ms)
				if resp.Header.Get("X-Cache") == "miss" {
					res.misses++
					res.missMS = append(res.missMS, ms)
					res.missKind[cat[idx].kind] = append(res.missKind[cat[idx].kind], ms)
				} else {
					res.hits++
				}
			}
		}(c)
	}
	wg.Wait()
	out := loadResult{elapsed: time.Since(start).Seconds(), bodies: map[int][]byte{}, missKind: map[string][]float64{}}
	for i := range results {
		r := &results[i]
		out.latMS = append(out.latMS, r.latMS...)
		out.missMS = append(out.missMS, r.missMS...)
		out.attempted += r.attempted
		out.failed += r.failed
		out.hits += r.hits
		out.misses += r.misses
		if out.firstErr == nil {
			out.firstErr = r.firstErr
		}
		for k, v := range r.missKind {
			out.missKind[k] = append(out.missKind[k], v...)
		}
		for idx, body := range r.bodies {
			if first, ok := out.bodies[idx]; !ok {
				out.bodies[idx] = body
			} else if err := sameAnswer(first, body); err != nil {
				out.fail(fmt.Errorf("%s: clients saw different answers: %w", cat[idx].path, err))
			}
		}
	}
	return out
}

// sameAnswer reports whether two bodies for one request carry the same
// answer: identical bytes, or — a float mean reduced in a different order
// differs in its last digits — equal under the verification tolerance.
func sameAnswer(a, b []byte) error {
	if bytes.Equal(a, b) {
		return nil
	}
	at, err := decodeTree(a)
	if err != nil {
		return err
	}
	bt, err := decodeTree(b)
	if err != nil {
		return err
	}
	return eqTree("", at, bt)
}

// hitRatio is the share of OK requests the server answered from its cache.
func (r *loadResult) hitRatio() float64 {
	if n := r.hits + r.misses; n > 0 {
		return float64(r.hits) / float64(n)
	}
	return 0
}

func (r *loadResult) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// get issues one request outside any window (warm-up, probes).
func get(client *http.Client, url string) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return nil
}
