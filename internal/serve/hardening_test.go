package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gdeltmine/internal/shard"
)

// errorEnvelope decodes the uniform {"error": "..."} body.
func errorEnvelope(t *testing.T, body io.Reader) string {
	t.Helper()
	var env struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(body).Decode(&env); err != nil {
		t.Fatalf("error body is not the JSON envelope: %v", err)
	}
	if env.Error == "" {
		t.Fatal("empty error field in envelope")
	}
	return env.Error
}

func TestMethodNotAllowed(t *testing.T) { eachWorld(t, testMethodNotAllowed) }

func testMethodNotAllowed(t *testing.T, sdb *shard.DB) {
	srv := testServer(t, sdb)
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/api/v1/stats", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE status %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != "GET, POST" {
		t.Fatalf("Allow header %q, want GET, POST", allow)
	}
	errorEnvelope(t, resp.Body)

	// POST is part of the query surface (form-encoded qlang expressions),
	// so it must answer like the GET.
	post, err := http.Post(srv.URL+"/api/v1/stats", "application/x-www-form-urlencoded", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer post.Body.Close()
	if post.StatusCode != http.StatusOK {
		t.Fatalf("POST status %d, want 200", post.StatusCode)
	}
}

func TestErrorsUseJSONEnvelope(t *testing.T) { eachWorld(t, testErrorsUseJSONEnvelope) }

func testErrorsUseJSONEnvelope(t *testing.T, sdb *shard.DB) {
	srv := testServer(t, sdb)
	for _, path := range []string{
		"/api/v1/stats?workers=potato",  // bad query parameter
		"/api/v1/series-nope",           // unknown series
		"/api/v1/top-publishers?k=zero", // bad k
		"/api/v1/theme-trends",          // missing required parameter
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode < 400 {
			t.Fatalf("%s: status %d, want an error", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s: Content-Type %q, want application/json", path, ct)
		}
		errorEnvelope(t, resp.Body)
		resp.Body.Close()
	}
}

func TestHealthAndReadiness(t *testing.T) { eachWorld(t, testHealthAndReadiness) }

func testHealthAndReadiness(t *testing.T, sdb *shard.DB) {
	s := NewSharded(sdb, Config{})
	srv := httptest.NewServer(s)
	defer srv.Close()

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, want 200", path, resp.StatusCode)
		}
		resp.Body.Close()
	}

	// A draining server fails readiness but stays live.
	s.SetReady(false)
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining: status %d, want 503", resp.StatusCode)
	}
	errorEnvelope(t, resp.Body)
	resp.Body.Close()
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz while draining: status %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestLoadShedding(t *testing.T) { eachWorld(t, testLoadShedding) }

func testLoadShedding(t *testing.T, sdb *shard.DB) {
	s := NewSharded(sdb, Config{MaxInFlight: 1})

	// Occupy the single slot with a request parked inside a handler.
	release := make(chan struct{})
	entered := make(chan struct{})
	blocked := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		w.WriteHeader(http.StatusOK)
	})
	wrapped := s.protect(blocked)
	srv := httptest.NewServer(wrapped)
	defer srv.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Get(srv.URL + "/api/v1/stats")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered

	// Second request must be shed immediately with 503, not queued.
	resp, err := http.Get(srv.URL + "/api/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed request status %d, want 503", resp.StatusCode)
	}
	msg := errorEnvelope(t, resp.Body)
	resp.Body.Close()
	if !strings.Contains(msg, "overloaded") {
		t.Fatalf("shed message %q", msg)
	}
	close(release)
	<-done
}

func TestPanicRecoveryReturnsJSON500(t *testing.T) { eachWorld(t, testPanicRecoveryReturnsJSON500) }

func testPanicRecoveryReturnsJSON500(t *testing.T, sdb *shard.DB) {
	s := NewSharded(sdb, Config{})
	boom := s.protect(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("handler exploded")
	}))
	srv := httptest.NewServer(boom)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/api/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	msg := errorEnvelope(t, resp.Body)
	if !strings.Contains(msg, "handler exploded") {
		t.Fatalf("message %q lacks panic value", msg)
	}
}

// TestRequestTimeoutCancelsQuery gives requests a deadline that expires
// before the query can finish and checks the server reports the timeout via
// the envelope instead of serving a silently partial aggregate.
func TestRequestTimeoutCancelsQuery(t *testing.T) { eachWorld(t, testRequestTimeoutCancelsQuery) }

func testRequestTimeoutCancelsQuery(t *testing.T, sdb *shard.DB) {
	s := NewSharded(sdb, Config{RequestTimeout: time.Nanosecond})
	srv := httptest.NewServer(s)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/api/v1/country")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	msg := errorEnvelope(t, resp.Body)
	if !strings.Contains(msg, "cancelled") {
		t.Fatalf("message %q", msg)
	}
}

// TestShutdownUnderLoad hammers the server with concurrent queries while it
// shuts down — the race-detector drill for the drain path (run under
// go test -race). Every request must either succeed or fail with a
// well-formed shed/timeout/connection error; nothing may panic or race.
func TestShutdownUnderLoad(t *testing.T) { eachWorld(t, testShutdownUnderLoad) }

func testShutdownUnderLoad(t *testing.T, sdb *shard.DB) {
	s := NewSharded(sdb, Config{RequestTimeout: 2 * time.Second, MaxInFlight: 8})
	httpSrv := httptest.NewServer(s)

	var wg sync.WaitGroup
	stopped := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			paths := []string{"/api/v1/stats", "/api/v1/top-publishers", "/api/v1/count?where=delay>4", "/readyz"}
			for i := 0; ; i++ {
				select {
				case <-stopped:
					return
				default:
				}
				resp, err := http.Get(httpSrv.URL + paths[(w+i)%len(paths)])
				if err != nil {
					return // connection refused mid-shutdown is expected
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(w)
	}

	time.Sleep(50 * time.Millisecond)
	s.SetReady(false)
	httpSrv.Close() // blocks until outstanding requests finish
	close(stopped)
	wg.Wait()

	if n := s.InFlight(); n != 0 {
		t.Fatalf("%d requests still tracked in flight after shutdown", n)
	}
}

// TestCancelledRequestStopsEngine issues a query whose context is cancelled
// mid-flight and checks the handler notices: the engine scan stops and the
// response never arrives as a 200.
func TestCancelledRequestStopsEngine(t *testing.T) { eachWorld(t, testCancelledRequestStopsEngine) }

func testCancelledRequestStopsEngine(t *testing.T, sdb *shard.DB) {
	s := NewSharded(sdb, Config{})
	srv := httptest.NewServer(s)
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/api/v1/country?workers=2", nil)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(time.Millisecond)
		cancel()
	}()
	resp, err := http.DefaultClient.Do(req)
	if err == nil {
		// The query beat the cancel; that's fine, but it must be complete.
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("status %d", resp.StatusCode)
		}
		return
	}
	if !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestHeadRequestAllowed(t *testing.T) { eachWorld(t, testHeadRequestAllowed) }

func testHeadRequestAllowed(t *testing.T, sdb *shard.DB) {
	srv := testServer(t, sdb)
	resp, err := http.Head(srv.URL + "/api/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HEAD status %d, want 200", resp.StatusCode)
	}
}
