// Package quality records per-request and per-chunk compression-quality
// telemetry — the feature stream the ROADMAP's online adaptive
// codec/model selector (Tao et al.; Underwood et al., PAPERS.md) will
// consume, measured continuously instead of in offline experiments:
//
//   - achieved compression ratio, always (one histogram observe per event);
//   - on sampled events (1 in SampleEvery), the Fig. 1 byte
//     characteristics of the data (entropy, serial correlation, via
//     internal/stats) and a reconstruction check: decode the archive just
//     produced, measure max abs error / NRMSE / PSNR against the original,
//     and report the requested-vs-achieved error-bound headroom
//     (bound / achieved max error — above 1 means the bound held, with
//     that much slack).
//
// Every event also lands in a bounded in-memory decision log (a ring of
// LogCapacity records) served as JSON at /debug/quality, so "what did the
// codec actually deliver on recent traffic" is answerable without a
// metrics pipeline.
//
// All entry points are gated on obs.Enabled(): with observability off an
// Observe call costs one atomic load, preserving the disabled-overhead
// guarantee of the instrumented pipelines (pinned by the obs overhead
// guard test).
package quality

import (
	"encoding/json"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"lrm/internal/obs"
	"lrm/internal/stats"
)

// Ratio and headroom histograms store fixed-point thousandths (obs
// histograms are integer); PSNR stores whole dB.
var (
	// ratioBounds span 1x..128x in thousandths.
	ratioBounds = []int64{1000, 1500, 2000, 3000, 4000, 6000, 8000, 12000, 16000, 24000, 32000, 64000, 128000}
	// headroomBounds bracket 1.0 tightly: below 1000 the requested bound
	// was violated, just above it held with little slack.
	headroomBounds = []int64{100, 500, 900, 1000, 1500, 2000, 4000, 8000, 16000, 64000, 256000}
	psnrBounds     = []int64{20, 40, 60, 80, 100, 120, 140, 160, 180}

	hRatio      = obs.GetHistogram("quality.ratio", ratioBounds)
	hChunkRatio = obs.GetHistogram("quality.chunk.ratio", ratioBounds)
	hHeadroom   = obs.GetHistogram("quality.headroom", headroomBounds)
	hPSNR       = obs.GetHistogram("quality.psnr_db", psnrBounds)

	cEvents     = obs.GetCounter("quality.events")
	cSampled    = obs.GetCounter("quality.sampled")
	cViolations = obs.GetCounter("quality.bound_violations")
	cCheckErrs  = obs.GetCounter("quality.check_errors")
)

func init() {
	obs.Describe("quality.ratio", "Achieved request-level compression ratio, fixed-point thousandths.")
	obs.Describe("quality.chunk.ratio", "Achieved per-chunk compression ratio, fixed-point thousandths.")
	obs.Describe("quality.headroom", "Requested error bound / achieved max abs error, thousandths; under 1000 means the bound was violated.")
	obs.Describe("quality.psnr_db", "Sampled reconstruction PSNR against the original field, dB.")
	obs.Describe("quality.events", "Quality telemetry events recorded (requests + chunks).")
	obs.Describe("quality.sampled", "Events that paid for the full feature + reconstruction check.")
	obs.Describe("quality.bound_violations", "Sampled reconstructions whose max abs error exceeded the requested bound.")
	obs.Describe("quality.check_errors", "Sampled reconstruction checks that failed to decode.")
	obs.RegisterDebugHandler("/debug/quality", Handler())
}

// sampleEvery is the sampling stride: one event in every sampleEvery pays
// for features + reconstruction. The counter-based gate keeps the stream
// deterministic under serial load and statistically fair under
// concurrency.
var (
	sampleEvery atomic.Int64
	sampleTick  atomic.Int64
)

func init() { sampleEvery.Store(16) }

// SetSampleEvery sets the sampling stride (1 = every event, the test
// setting) and returns the previous value. n < 1 disables sampling
// entirely — ratios and the decision log still record.
func SetSampleEvery(n int) (prev int) {
	prev = int(sampleEvery.Load())
	sampleEvery.Store(int64(n))
	return prev
}

// Event describes one compression outcome to Observe. The function fields
// keep this package free of core/compress imports (and so importable from
// core): the caller supplies closures that are only invoked on sampled
// events.
type Event struct {
	// Source labels the call site: "serve.compress", "serve.decompress",
	// "core.chunk_compress".
	Source string
	// Codec is the codec's Name().
	Codec string
	// Chunk is the chunk index, or -1 for request-level events.
	Chunk int
	// Dims is the field shape.
	Dims []int
	// OriginalBytes and CompressedBytes size the two sides of the codec.
	OriginalBytes, CompressedBytes int
	// Bound is the requested absolute error bound; NaN when the codec's
	// guarantee is not expressible as one (fixed-precision zfp,
	// pointwise-relative sz) and 0 for lossless codecs.
	Bound float64
	// Original is the field's data (read-only). On sampled events the Fig.
	// 1 byte features of its little-endian wire bytes are computed from it
	// (stats.CharacterizeFloats), and it is the reference of the
	// reconstruction check. Nil skips both.
	Original []float64
	// Reconstruct decodes the just-produced archive. Nil skips the
	// check. Called only on sampled events.
	Reconstruct func() ([]float64, error)
}

// Record is one decision-log entry — the structured trace of what a codec
// delivered for one request or chunk.
type Record struct {
	TimeMs          int64   `json:"time_ms"`
	Source          string  `json:"source"`
	Codec           string  `json:"codec"`
	Chunk           int     `json:"chunk"`
	Dims            []int   `json:"dims,omitempty"`
	OriginalBytes   int     `json:"original_bytes"`
	CompressedBytes int     `json:"compressed_bytes"`
	Ratio           float64 `json:"ratio"`
	Bound           float64 `json:"bound,omitempty"`
	Sampled         bool    `json:"sampled"`
	// Byte features (Fig. 1), present when Sampled and Original was
	// supplied.
	ByteEntropy float64 `json:"byte_entropy,omitempty"`
	SerialCorr  float64 `json:"serial_corr,omitempty"`
	// Reconstruction check, present when Sampled and Reconstruct ran.
	Checked    bool    `json:"checked"`
	MaxAbsErr  float64 `json:"max_abs_err,omitempty"`
	NRMSE      float64 `json:"nrmse,omitempty"`
	PSNRdB     float64 `json:"psnr_db,omitempty"`
	Headroom   float64 `json:"headroom,omitempty"`
	CheckError string  `json:"check_error,omitempty"`
}

// logRing is the bounded decision log.
var logRing = struct {
	sync.Mutex
	recs []Record
	head int
	n    int
	cap  int
}{cap: 256}

// SetLogCapacity resizes the decision log (dropping current contents) and
// returns the previous capacity. Minimum 1.
func SetLogCapacity(n int) (prev int) {
	if n < 1 {
		n = 1
	}
	logRing.Lock()
	defer logRing.Unlock()
	prev = logRing.cap
	logRing.cap, logRing.recs, logRing.head, logRing.n = n, nil, 0, 0
	return prev
}

// ResetLog clears the decision log (the histograms live in the obs
// registry and clear with obs.Reset).
func ResetLog() {
	logRing.Lock()
	defer logRing.Unlock()
	logRing.recs, logRing.head, logRing.n = nil, 0, 0
}

func appendRecord(r Record) {
	logRing.Lock()
	defer logRing.Unlock()
	if logRing.recs == nil {
		logRing.recs = make([]Record, logRing.cap)
	}
	logRing.recs[logRing.head] = r
	logRing.head = (logRing.head + 1) % logRing.cap
	if logRing.n < logRing.cap {
		logRing.n++
	}
}

// Records returns the decision log newest-first.
func Records() []Record {
	logRing.Lock()
	defer logRing.Unlock()
	out := make([]Record, 0, logRing.n)
	for i := 1; i <= logRing.n; i++ {
		out = append(out, logRing.recs[(logRing.head-i+logRing.cap)%logRing.cap])
	}
	return out
}

// Observe records one compression outcome. With observability disabled it
// returns after one atomic load. The cheap path (ratio histogram + log
// record) runs on every enabled call; the sampled path additionally
// computes byte features and runs the reconstruction check.
func Observe(ev Event) {
	if !obs.Enabled() {
		return
	}
	cEvents.Inc()

	rec := Record{
		TimeMs:          time.Now().UnixMilli(),
		Source:          ev.Source,
		Codec:           ev.Codec,
		Chunk:           ev.Chunk,
		Dims:            ev.Dims,
		OriginalBytes:   ev.OriginalBytes,
		CompressedBytes: ev.CompressedBytes,
	}
	if ev.CompressedBytes > 0 {
		rec.Ratio = float64(ev.OriginalBytes) / float64(ev.CompressedBytes)
	}
	if !math.IsNaN(ev.Bound) {
		rec.Bound = ev.Bound
	}
	h := hRatio
	if ev.Chunk >= 0 {
		h = hChunkRatio
	}
	h.Observe(int64(rec.Ratio * 1000))

	if n := sampleEvery.Load(); n >= 1 && sampleTick.Add(1)%n == 0 {
		rec.Sampled = true
		cSampled.Inc()
		if len(ev.Original) > 0 {
			ch := stats.CharacterizeFloats(ev.Original)
			rec.ByteEntropy = ch.ByteEntropy
			rec.SerialCorr = ch.SerialCorrelation
		}
		check(&rec, ev)
	}
	appendRecord(rec)
}

// check runs the sampled reconstruction: decode, compare, grade against
// the requested bound.
func check(rec *Record, ev Event) {
	if ev.Reconstruct == nil || len(ev.Original) == 0 {
		return
	}
	got, err := ev.Reconstruct()
	if err != nil {
		cCheckErrs.Inc()
		rec.CheckError = err.Error()
		return
	}
	if len(got) != len(ev.Original) {
		cCheckErrs.Inc()
		rec.CheckError = "reconstruction length mismatch"
		return
	}
	rec.Checked = true
	cmp := stats.Compare(ev.Original, got)
	rec.MaxAbsErr, rec.NRMSE, rec.PSNRdB = cmp.MaxAbsErr, cmp.NRMSE, cmp.PSNR
	if !math.IsInf(rec.PSNRdB, 0) {
		hPSNR.Observe(int64(rec.PSNRdB))
	}
	// Headroom only makes sense for a positive requested bound: lossless
	// codecs (bound 0) and inexpressible guarantees (NaN) have none.
	if ev.Bound > 0 && !math.IsNaN(ev.Bound) {
		if rec.MaxAbsErr > 0 {
			rec.Headroom = ev.Bound / rec.MaxAbsErr
		} else {
			rec.Headroom = math.Inf(1)
		}
		if rec.MaxAbsErr > ev.Bound {
			cViolations.Inc()
		}
		if !math.IsInf(rec.Headroom, 0) {
			// Clamp: a near-zero achieved error makes headroom*1000 overflow
			// int64, and float-to-int overflow is undefined.
			hv := rec.Headroom * 1000
			if max := float64(headroomBounds[len(headroomBounds)-1] + 1); hv > max {
				hv = max
			}
			hHeadroom.Observe(int64(hv))
		}
	}
}

// doc is the /debug/quality response shape.
type doc struct {
	SampleEvery int                         `json:"sample_every"`
	Events      int64                       `json:"events"`
	Sampled     int64                       `json:"sampled"`
	Violations  int64                       `json:"bound_violations"`
	CheckErrors int64                       `json:"check_errors"`
	Histograms  map[string]obs.HistSnapshot `json:"histograms"`
	Records     []Record                    `json:"records"`
}

// Handler serves the decision log and quality histograms as JSON.
func Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d := doc{
			SampleEvery: int(sampleEvery.Load()),
			Events:      cEvents.Value(),
			Sampled:     cSampled.Value(),
			Violations:  cViolations.Value(),
			CheckErrors: cCheckErrs.Value(),
			Histograms: map[string]obs.HistSnapshot{
				"quality.ratio":       hRatio.Snapshot(),
				"quality.chunk.ratio": hChunkRatio.Snapshot(),
				"quality.headroom":    hHeadroom.Snapshot(),
				"quality.psnr_db":     hPSNR.Snapshot(),
			},
			Records: Records(),
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		_ = enc.Encode(d)
	})
}
