package quality_test

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"net/http/httptest"
	"testing"

	"lrm/internal/obs"
	"lrm/internal/obs/quality"
	"lrm/internal/stats"
)

// withQuality enables the registry and isolates the sampling stride and
// decision log for one test.
func withQuality(t *testing.T, sampleEvery int) {
	t.Helper()
	prevEnabled := obs.SetEnabled(true)
	prevSample := quality.SetSampleEvery(sampleEvery)
	obs.Reset()
	quality.ResetLog()
	t.Cleanup(func() {
		obs.SetEnabled(prevEnabled)
		quality.SetSampleEvery(prevSample)
		obs.Reset()
		quality.ResetLog()
	})
}

// event builds a request-level event whose reconstruction misses the
// original by exactly maxErr in one place.
func event(bound, maxErr float64) quality.Event {
	orig := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	recon := append([]float64(nil), orig...)
	recon[3] += maxErr
	return quality.Event{
		Source:          "qualitytest",
		Codec:           "sz",
		Chunk:           -1,
		Dims:            []int{2, 2, 2},
		OriginalBytes:   800,
		CompressedBytes: 100,
		Bound:           bound,
		Original:        orig,
		Reconstruct:     func() ([]float64, error) { return recon, nil },
	}
}

func TestObserveSampledCheck(t *testing.T) {
	withQuality(t, 1)

	quality.Observe(event(1e-3, 5e-4)) // bound holds with 2x headroom

	recs := quality.Records()
	if len(recs) != 1 {
		t.Fatalf("decision log has %d records, want 1", len(recs))
	}
	r := recs[0]
	if !r.Sampled || !r.Checked {
		t.Fatalf("record not sampled+checked: %+v", r)
	}
	if r.Ratio != 8 {
		t.Errorf("ratio = %v, want 8 (800/100)", r.Ratio)
	}
	if math.Abs(r.MaxAbsErr-5e-4) > 1e-12 {
		t.Errorf("max abs err = %v, want 5e-4", r.MaxAbsErr)
	}
	if math.Abs(r.Headroom-2) > 1e-9 {
		t.Errorf("headroom = %v, want 2.0", r.Headroom)
	}
	if r.ByteEntropy <= 0 {
		t.Errorf("byte entropy = %v, want > 0", r.ByteEntropy)
	}
	if r.PSNRdB <= 0 || math.IsInf(r.PSNRdB, 0) {
		t.Errorf("psnr = %v, want finite positive", r.PSNRdB)
	}

	snap := obs.Snapshot()
	if got := snap.Counters["quality.events"]; got != 1 {
		t.Errorf("quality.events = %d, want 1", got)
	}
	if got := snap.Counters["quality.sampled"]; got != 1 {
		t.Errorf("quality.sampled = %d, want 1", got)
	}
	if got := snap.Counters["quality.bound_violations"]; got != 0 {
		t.Errorf("quality.bound_violations = %d, want 0", got)
	}
	if got := snap.Histograms["quality.ratio"].Count; got != 1 {
		t.Errorf("quality.ratio count = %d, want 1", got)
	}
	if got := snap.Histograms["quality.headroom"].Count; got != 1 {
		t.Errorf("quality.headroom count = %d, want 1", got)
	}
}

func TestObserveBoundViolation(t *testing.T) {
	withQuality(t, 1)

	quality.Observe(event(1e-3, 2e-3)) // achieved error double the bound

	if got := obs.GetCounter("quality.bound_violations").Value(); got != 1 {
		t.Fatalf("quality.bound_violations = %d, want 1", got)
	}
	r := quality.Records()[0]
	if r.Headroom >= 1 {
		t.Errorf("headroom = %v, want < 1 on a violation", r.Headroom)
	}
}

func TestObserveChunkEventAndLossless(t *testing.T) {
	withQuality(t, 1)

	// A chunk event lands in the chunk histogram; a zero (lossless) bound
	// and an exact reconstruction produce infinite headroom but no
	// histogram observation and no violation.
	ev := event(0, 0)
	ev.Chunk = 3
	quality.Observe(ev)

	snap := obs.Snapshot()
	if got := snap.Histograms["quality.chunk.ratio"].Count; got != 1 {
		t.Errorf("quality.chunk.ratio count = %d, want 1", got)
	}
	if got := snap.Histograms["quality.ratio"].Count; got != 0 {
		t.Errorf("quality.ratio count = %d, want 0 for a chunk event", got)
	}
	if got := snap.Histograms["quality.headroom"].Count; got != 0 {
		t.Errorf("quality.headroom count = %d, want 0 for a lossless bound", got)
	}
	if got := obs.GetCounter("quality.bound_violations").Value(); got != 0 {
		t.Errorf("quality.bound_violations = %d, want 0", got)
	}
}

func TestObserveCheckError(t *testing.T) {
	withQuality(t, 1)

	ev := event(1e-3, 0)
	ev.Reconstruct = func() ([]float64, error) { return nil, errors.New("decode exploded") }
	quality.Observe(ev)

	if got := obs.GetCounter("quality.check_errors").Value(); got != 1 {
		t.Fatalf("quality.check_errors = %d, want 1", got)
	}
	r := quality.Records()[0]
	if r.Checked || r.CheckError == "" {
		t.Errorf("record = %+v, want unchecked with a check_error", r)
	}
}

func TestObserveDisabledIsNoop(t *testing.T) {
	prev := obs.SetEnabled(false)
	t.Cleanup(func() { obs.SetEnabled(prev) })
	quality.ResetLog()
	before := obs.GetCounter("quality.events").Value()

	quality.Observe(event(1e-3, 5e-4))

	if got := obs.GetCounter("quality.events").Value(); got != before {
		t.Fatalf("disabled Observe incremented quality.events: %d -> %d", before, got)
	}
	if got := quality.Records(); len(got) != 0 {
		t.Fatalf("disabled Observe appended %d log records", len(got))
	}
}

func TestLogRingBoundedNewestFirst(t *testing.T) {
	withQuality(t, 0) // sampling off: cheap path only
	prevCap := quality.SetLogCapacity(4)
	t.Cleanup(func() { quality.SetLogCapacity(prevCap) })

	for i := 0; i < 10; i++ {
		ev := event(math.NaN(), 0)
		ev.OriginalBytes = i
		quality.Observe(ev)
	}
	recs := quality.Records()
	if len(recs) != 4 {
		t.Fatalf("log retained %d records, want capacity 4", len(recs))
	}
	for i, want := range []int{9, 8, 7, 6} {
		if recs[i].OriginalBytes != want {
			t.Fatalf("records not newest-first: %+v", recs)
		}
	}
	if recs[0].Sampled {
		t.Error("sampling stride 0 still sampled an event")
	}
}

func TestHandlerServesJSON(t *testing.T) {
	withQuality(t, 1)
	quality.Observe(event(1e-3, 5e-4))

	rr := httptest.NewRecorder()
	quality.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/quality", nil))
	if rr.Code != 200 {
		t.Fatalf("status %d", rr.Code)
	}
	var doc struct {
		SampleEvery int               `json:"sample_every"`
		Events      int64             `json:"events"`
		Histograms  map[string]any    `json:"histograms"`
		Records     []json.RawMessage `json:"records"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.Events != 1 || len(doc.Records) != 1 {
		t.Fatalf("doc = %+v, want 1 event and 1 record", doc)
	}
	if _, ok := doc.Histograms["quality.ratio"]; !ok {
		t.Fatal("response missing the quality.ratio histogram")
	}
}

// TestSampledRecordValues: a sampled record's byte features and error
// metrics are the values the byte-buffer and per-metric functions give on
// the same data, bit for bit.
func TestSampledRecordValues(t *testing.T) {
	withQuality(t, 1)
	orig := make([]float64, 1000)
	recon := make([]float64, len(orig))
	for i := range orig {
		orig[i] = math.Sin(float64(i)*0.05) * 40
		recon[i] = orig[i] + 1e-4*math.Cos(float64(i)*1.7)
	}
	ev := event(1e-3, 0)
	ev.Original = orig
	ev.Reconstruct = func() ([]float64, error) { return recon, nil }
	quality.Observe(ev)

	r := quality.Records()[0]
	raw := make([]byte, 8*len(orig))
	for i, v := range orig {
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
	}
	ch := stats.Characterize(raw)
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"byte entropy", r.ByteEntropy, ch.ByteEntropy},
		{"serial correlation", r.SerialCorr, ch.SerialCorrelation},
		{"max abs err", r.MaxAbsErr, stats.MaxAbsError(orig, recon)},
		{"nrmse", r.NRMSE, stats.NRMSE(orig, recon)},
		{"psnr", r.PSNRdB, stats.PSNR(orig, recon)},
	} {
		if math.Float64bits(c.got) != math.Float64bits(c.want) {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}
