package serve_test

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"lrm/internal/obs"
	"lrm/internal/obs/quality"
	"lrm/internal/obs/slo"
	"lrm/internal/obs/tsdb"
	"lrm/internal/serve"
)

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp, b
}

// TestTelemetryHistoryAndSLO is the PR's acceptance test: after one
// compress/decompress round-trip against lrmserve, /debug/history must
// return non-empty series for serve.requests and the quality.ratio
// histogram, the SLO burn rates must be visible in /healthz?verbose=1, and
// /debug/quality must render.
func TestTelemetryHistoryAndSLO(t *testing.T) {
	prevEnabled := obs.SetEnabled(true)
	prevSample := quality.SetSampleEvery(1)
	obs.Reset()
	quality.ResetLog()
	t.Cleanup(func() {
		obs.SetEnabled(prevEnabled)
		quality.SetSampleEvery(prevSample)
		obs.Reset()
		quality.ResetLog()
	})

	// Mount the history store before serve.New: the server's mux snapshots
	// the obs debug handlers at construction time.
	hist := tsdb.New(tsdb.Config{Interval: 10 * time.Millisecond})
	hist.Mount()
	hist.Start()
	defer hist.Stop()

	_, ts := newServer(t, serve.Config{
		SLO: slo.Objectives{Availability: 0.999, LatencyP99: 5 * time.Second},
	})

	// One round-trip: compress a field, decompress the archive.
	_, raw := testField(12)
	resp, archive := post(t, ts.URL, "/v1/compress?dims=12,12,12&codec=sz&mode=abs&bound=1e-4&chunks=2", raw, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress: status %d: %s", resp.StatusCode, archive)
	}
	resp, back := post(t, ts.URL, "/v1/decompress", archive, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decompress: status %d: %s", resp.StatusCode, back)
	}
	if len(back) != len(raw) {
		t.Fatalf("round-trip size mismatch: %d -> %d", len(raw), len(back))
	}

	// A deterministic sampling pass after the traffic, so the history holds
	// the post-round-trip counter values regardless of ticker timing.
	hist.SampleOnce(time.Now())

	// /debug/history: non-empty series for the aggregate request counter
	// and the quality.ratio histogram's derived count series.
	resp, body := get(t, ts.URL+"/debug/history?name=serve.requests&name=quality.ratio.count")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/history: status %d: %s", resp.StatusCode, body)
	}
	var doc struct {
		Series []struct {
			Name   string       `json:"name"`
			Points [][2]float64 `json:"points"`
		} `json:"series"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/debug/history: invalid JSON: %v", err)
	}
	last := map[string]float64{}
	for _, sn := range doc.Series {
		if len(sn.Points) == 0 {
			t.Errorf("/debug/history: series %s is empty", sn.Name)
			continue
		}
		last[sn.Name] = sn.Points[len(sn.Points)-1][1]
	}
	if last["serve.requests"] < 2 {
		t.Errorf("serve.requests history = %v, want >= 2 after a round-trip", last["serve.requests"])
	}
	if last["quality.ratio.count"] < 1 {
		t.Errorf("quality.ratio.count history = %v, want >= 1 after a compress", last["quality.ratio.count"])
	}

	// /healthz?verbose=1: the SLO report with burn rates.
	resp, body = get(t, ts.URL+"/healthz?verbose=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz?verbose=1: status %d: %s", resp.StatusCode, body)
	}
	var health struct {
		Status string     `json:"status"`
		SLO    slo.Report `json:"slo"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatalf("/healthz?verbose=1: invalid JSON: %v", err)
	}
	if health.Status != "ok" {
		t.Errorf("health status = %q, want ok", health.Status)
	}
	if !strings.Contains(string(body), "availability_burn") {
		t.Error("/healthz?verbose=1 does not expose burn rates")
	}
	if len(health.SLO.Windows) != 2 {
		t.Fatalf("SLO report windows = %+v, want 5m and 1h", health.SLO.Windows)
	}
	for _, w := range health.SLO.Windows {
		if w.Requests < 2 {
			t.Errorf("%s window saw %d requests, want the round-trip", w.Window, w.Requests)
		}
		if w.AvailabilityBurn != 0 {
			t.Errorf("%s availability burn = %v, want 0 (no 5xx)", w.Window, w.AvailabilityBurn)
		}
	}

	// /debug/quality has the decision log for the round-trip.
	resp, body = get(t, ts.URL+"/debug/quality")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/quality: status %d", resp.StatusCode)
	}
	var qdoc struct {
		Events  int64             `json:"events"`
		Records []json.RawMessage `json:"records"`
	}
	if err := json.Unmarshal(body, &qdoc); err != nil {
		t.Fatalf("/debug/quality: invalid JSON: %v", err)
	}
	if qdoc.Events < 1 || len(qdoc.Records) < 1 {
		t.Errorf("/debug/quality: events=%d records=%d, want >= 1", qdoc.Events, len(qdoc.Records))
	}
}

// TestSLORecordsRejections proves the SLO tracker sees what clients saw:
// guard rejections (405 here) count as requests in the report.
func TestSLORecordsRejections(t *testing.T) {
	prev := obs.SetEnabled(true)
	obs.Reset()
	t.Cleanup(func() { obs.SetEnabled(prev); obs.Reset() })

	_, ts := newServer(t, serve.Config{})
	resp, _ := get(t, ts.URL+"/v1/compress") // GET on a POST endpoint
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/compress: status %d, want 405", resp.StatusCode)
	}

	resp, body := get(t, ts.URL+"/healthz?verbose=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz?verbose=1: status %d", resp.StatusCode)
	}
	var health struct {
		SLO slo.Report `json:"slo"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	for _, w := range health.SLO.Windows {
		if w.Requests < 1 {
			t.Errorf("%s window ignored the rejected request: %+v", w.Window, w)
		}
	}
}
