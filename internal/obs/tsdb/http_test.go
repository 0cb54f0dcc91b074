package tsdb_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"lrm/internal/obs"
	"lrm/internal/obs/tsdb"
)

// TestHandlersUnderConcurrentSampling hammers /debug/history while the
// background sampler runs and other goroutines mutate and Reset the
// registry — the race-detector proof that queries, sampling passes, and
// obs.Reset can overlap freely.
func TestHandlersUnderConcurrentSampling(t *testing.T) {
	c := obs.GetCounter("tsdbtest.race.ctr")
	h := obs.GetHistogram("tsdbtest.race.hist", nil)
	t.Cleanup(obs.Reset)

	s := tsdb.New(tsdb.Config{Interval: time.Millisecond, Capacity: 32})
	s.Start()
	defer s.Stop()

	mux := http.NewServeMux()
	mux.Handle("/debug/history", s.HistoryHandler())
	ts := httptest.NewServer(mux)
	defer ts.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // writer: counters + histogram observations
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.Inc()
			h.Observe(int64(i%1000 + 1))
		}
	}()
	go func() { // resetter: the documented Reset race
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			obs.Reset()
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Wait for the sampler's first passes so a loaded machine cannot reach
	// the first GET before there is any history to query.
	ready := time.Now().Add(10 * time.Second)
	for s.Samples() < 2 {
		if time.Now().After(ready) {
			t.Fatalf("sampler completed %d passes in 10s, want 2", s.Samples())
		}
		time.Sleep(time.Millisecond)
	}

	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		for _, path := range []string{
			"/debug/history",
			"/debug/history?match=tsdbtest.race.&rate=1&n=10",
		} {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("GET %s: read: %v", path, err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
			}
			var doc map[string]any
			if err := json.Unmarshal(body, &doc); err != nil {
				t.Fatalf("GET %s: invalid JSON under concurrent sampling: %v", path, err)
			}
		}
	}
	close(stop)
	wg.Wait()

	if s.Samples() < 2 {
		t.Fatalf("background sampler recorded %d passes during the run", s.Samples())
	}
}

func TestHistoryHandlerRejectsBadQuery(t *testing.T) {
	s := tsdb.New(tsdb.Config{})
	ts := httptest.NewServer(s.HistoryHandler())
	defer ts.Close()

	for _, raw := range []string{"bogus=1", "since=never", "rate=2", "n=0", "from=9&to=3"} {
		resp, err := http.Get(ts.URL + "/?" + raw)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("query %q: status %d, want 400", raw, resp.StatusCode)
		}
	}
}
