package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"lrm/internal/obs"
	"lrm/internal/serve"
	"lrm/internal/sim/heat3d"
)

// serveLoadReport is the load generator's JSON artifact: enough for a CI
// gate to assert "no 4xx/5xx, p99 under threshold" and for a human to see
// the latency shape at a glance.
type serveLoadReport struct {
	Schema          string  `json:"schema"`
	URL             string  `json:"url"`
	Clients         int     `json:"clients"`
	DurationSeconds float64 `json:"duration_s"`
	Requests        int     `json:"requests"`
	Status2xx       int     `json:"status_2xx"`
	Status4xx       int     `json:"status_4xx"`
	Status5xx       int     `json:"status_5xx"`
	TransportErrors int     `json:"transport_errors"`
	RPS             float64 `json:"rps"`
	P50Ns           int64   `json:"p50_ns"`
	P90Ns           int64   `json:"p90_ns"`
	P99Ns           int64   `json:"p99_ns"`
	MaxNs           int64   `json:"max_ns"`
	// ServeMetrics is present in in-process mode only, where the server
	// shares this process's obs registry: cache effectiveness and
	// rejection-reason counts, as deltas over the run.
	ServeMetrics *serveLoadMetrics `json:"serve_metrics,omitempty"`
}

// serveLoadMetrics mirrors the server-side counters a load run cares
// about: did the response cache earn its memory, and which admission gates
// fired.
type serveLoadMetrics struct {
	CacheHits         int64   `json:"cache_hits"`
	CacheMisses       int64   `json:"cache_misses"`
	CacheHitRate      float64 `json:"cache_hit_rate"`
	RejectedAdmission int64   `json:"rejected_admission"`
	RejectedQuota     int64   `json:"rejected_quota"`
	RejectedDraining  int64   `json:"rejected_draining"`
}

// serveCounterNames are the registry counters serveLoadMetrics reads,
// in struct field order.
var serveCounterNames = []string{
	"serve.cache.hits", "serve.cache.misses",
	"serve.rejected.admission", "serve.rejected.quota", "serve.rejected.draining",
}

func readServeCounters() [5]int64 {
	var out [5]int64
	for i, n := range serveCounterNames {
		out[i] = obs.GetCounter(n).Value()
	}
	return out
}

const serveLoadSchema = "lrm-serve-load/1"

// loadTally is one client's outcome counts and latency samples, merged
// after the run; per-client tallies keep the hot loop lock-free.
type loadTally struct {
	status2xx, status4xx, status5xx, transport int
	latencies                                  []time.Duration
}

// serveLoadMain drives a compress/decompress request mix against an
// lrmserve instance and gates on the outcome: any 4xx or 5xx, any
// transport error, or a p99 above limit is a failing run (exit 1). With
// url == "" it stands up an in-process server on a loopback listener — the
// CI smoke mode, no separate process needed — and additionally asserts
// that the serve metrics actually recorded the traffic.
func serveLoadMain(url string, clients int, duration, p99Limit time.Duration) int {
	if clients < 1 {
		clients = 1
	}
	inProcess := url == ""
	var stop func() error
	if inProcess {
		var err error
		url, stop, err = startLoopbackServer()
		if err != nil {
			fmt.Fprintf(os.Stderr, "lrmbench: serve-load: %v\n", err)
			return 1
		}
	}

	// In-process the server shares our registry, so cache and rejection
	// counters can be reported as deltas over the run (the priming request
	// below is part of the run: it seeds the cache).
	var base [5]int64
	if inProcess {
		base = readServeCounters()
	}

	// Workload bodies: one raw field for /v1/compress, its archive for
	// /v1/decompress, prepared once and shared read-only by every client.
	f := heat3d.Solve(heat3d.Default(16))
	raw := f.Bytes()
	resp, err := http.Post(url+"/v1/compress?dims=16,16,16&codec=zfp&precision=16&chunks=4",
		"application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		fmt.Fprintf(os.Stderr, "lrmbench: serve-load: priming compress: %v\n", err)
		return 1
	}
	archive, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "lrmbench: serve-load: priming compress: status %d err %v\n",
			resp.StatusCode, err)
		return 1
	}

	deadline := time.Now().Add(duration)
	start := time.Now()
	tallies := make([]loadTally, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(tally *loadTally, alt bool) {
			defer wg.Done()
			client := &http.Client{Timeout: 30 * time.Second}
			for i := 0; time.Now().Before(deadline); i++ {
				path, body := "/v1/compress?dims=16,16,16&codec=zfp&precision=16&chunks=4", raw
				if alt == (i%2 == 0) {
					path, body = "/v1/decompress", archive
				}
				t0 := time.Now()
				resp, err := client.Post(url+path, "application/octet-stream", bytes.NewReader(body))
				if err != nil {
					tally.transport++
					continue
				}
				_, cerr := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if cerr != nil {
					tally.transport++
					continue
				}
				tally.latencies = append(tally.latencies, time.Since(t0))
				switch {
				case resp.StatusCode >= 500:
					tally.status5xx++
				case resp.StatusCode >= 400:
					tally.status4xx++
				default:
					tally.status2xx++
				}
			}
		}(&tallies[c], c%2 == 0)
	}
	wg.Wait()
	elapsed := time.Since(start)

	if inProcess {
		if err := stop(); err != nil {
			fmt.Fprintf(os.Stderr, "lrmbench: serve-load: server shutdown: %v\n", err)
			return 1
		}
	}

	rep := serveLoadReport{
		Schema:          serveLoadSchema,
		URL:             url,
		Clients:         clients,
		DurationSeconds: elapsed.Seconds(),
	}
	var all []time.Duration
	for i := range tallies {
		t := &tallies[i]
		rep.Status2xx += t.status2xx
		rep.Status4xx += t.status4xx
		rep.Status5xx += t.status5xx
		rep.TransportErrors += t.transport
		all = append(all, t.latencies...)
	}
	rep.Requests = rep.Status2xx + rep.Status4xx + rep.Status5xx + rep.TransportErrors
	if elapsed > 0 {
		rep.RPS = float64(rep.Requests) / elapsed.Seconds()
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if n := len(all); n > 0 {
		rep.P50Ns = all[n/2].Nanoseconds()
		rep.P90Ns = all[n*9/10].Nanoseconds()
		rep.P99Ns = all[n*99/100].Nanoseconds()
		rep.MaxNs = all[n-1].Nanoseconds()
	}
	if inProcess {
		cur := readServeCounters()
		m := &serveLoadMetrics{
			CacheHits:         cur[0] - base[0],
			CacheMisses:       cur[1] - base[1],
			RejectedAdmission: cur[2] - base[2],
			RejectedQuota:     cur[3] - base[3],
			RejectedDraining:  cur[4] - base[4],
		}
		if lookups := m.CacheHits + m.CacheMisses; lookups > 0 {
			m.CacheHitRate = float64(m.CacheHits) / float64(lookups)
		}
		rep.ServeMetrics = m
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "lrmbench: serve-load: %v\n", err)
		return 1
	}
	if _, err := os.Stdout.Write(append(data, '\n')); err != nil {
		fmt.Fprintf(os.Stderr, "lrmbench: serve-load: %v\n", err)
		return 1
	}

	code := 0
	if rep.Status4xx > 0 {
		fmt.Fprintf(os.Stderr, "lrmbench: serve-load: FAIL: %d responses were 4xx\n", rep.Status4xx)
		code = 1
	}
	if rep.Status5xx > 0 {
		fmt.Fprintf(os.Stderr, "lrmbench: serve-load: FAIL: %d responses were 5xx\n", rep.Status5xx)
		code = 1
	}
	if rep.TransportErrors > 0 {
		fmt.Fprintf(os.Stderr, "lrmbench: serve-load: FAIL: %d transport errors\n", rep.TransportErrors)
		code = 1
	}
	if rep.Status2xx == 0 {
		fmt.Fprintf(os.Stderr, "lrmbench: serve-load: FAIL: no successful requests\n")
		code = 1
	}
	if p99Limit > 0 && rep.P99Ns > p99Limit.Nanoseconds() {
		fmt.Fprintf(os.Stderr, "lrmbench: serve-load: FAIL: p99 %s exceeds limit %s\n",
			time.Duration(rep.P99Ns), p99Limit)
		code = 1
	}
	if inProcess {
		// The in-process server shares our obs registry: the endpoint
		// counters must have seen the traffic, or the observability wiring
		// regressed even though every response looked fine.
		if obs.GetCounter("serve.compress.requests").Value() == 0 ||
			obs.GetCounter("serve.decompress.requests").Value() == 0 {
			fmt.Fprintln(os.Stderr, "lrmbench: serve-load: FAIL: serve endpoint metrics recorded no traffic")
			code = 1
		}
	}
	return code
}

// startLoopbackServer runs an in-process lrmserve on 127.0.0.1:0 and
// returns its base URL plus a drain func. Quotas are left off: the load
// generator is a single tenant hammering on purpose.
func startLoopbackServer() (url string, stop func() error, err error) {
	obs.SetEnabled(true)
	srv := serve.New(serve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	stop = func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
		if serr := <-errc; serr != http.ErrServerClosed {
			return serr
		}
		return nil
	}
	return "http://" + ln.Addr().String(), stop, nil
}
