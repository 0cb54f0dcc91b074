package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The serve-mixed workload drives an in-process lrmserve over loopback.
// Its open-loop phase sends requests at Poisson arrival times regardless of
// how the server keeps up, over at most serveConns keep-alive connections,
// and times every request from when it was due, so a stall shows up in the
// latency of every request queued behind it. A closed-loop phase then
// measures the completions per second the same connections sustain.
//
// The rate is about 30% of the closed-loop capacity. Measured on a 2-vCPU
// VM, 150-200 req/s gave higher and noisier latencies, because idle vCPUs
// wake slowly; 300-400 req/s did the same through queueing.
const (
	serveN       = 32    // every request field is Heat3d serveN³
	serveRate    = 250.0 // open-loop arrivals per second
	serveConns   = 2
	hotArchives  = 4   // archives decompressed over and over (cache hits)
	coldPrefill  = 64  // unread archives written before the open loop starts
	coldCapacity = 256 // unread archives kept; older ones are dropped unread
	// closedShare is the part of the measured time given to the closed loop,
	// whose capacity and throughput need as long a run as the open loop's
	// medians.
	closedShare = 0.5
	// maxLagMs and maxRateError bound the load generator itself: a run
	// whose schedule slipped further is not a measurement of the server.
	maxLagMs     = 5.0
	maxRateError = 0.02
)

// Request kinds: half the mix compresses, 30% are cold reads and 20% hot
// ones. Cold and hot reads are not half and half, so the median decompress
// falls among the cold reads instead of on the gap between the two.
const (
	kindCompress = iota
	kindCold     // decompress an archive this run wrote and never read
	kindHot      // decompress one of the hot archives
)

// recipe regenerates a request field: a Heat3d snapshot from the pool plus
// uniform noise from a seeded generator, which makes every compressed field,
// and so every archive, unique. The noise amplitude is noiseShare·ε: zfp's
// accuracy mode overshoots its tolerance (by up to 10%) on about 1% of
// 32³ fields carrying noise of 0.3-0.7ε, and none in 1000 trials at 0.1ε,
// so the workload stays inside the range where the codec keeps its bound.
const noiseShare = 0.1

type recipe struct {
	snap  int
	noise uint64
}

type serveState struct {
	url   string
	pool  []*Field
	hot   [][]byte // hot archives
	ref   [][]byte // each hot archive's first decode
	hotIn []input

	mu   sync.Mutex
	cold []coldArchive   // FIFO of unread archives
	seen map[uint64]bool // FNV-64 of every archive written
	dups int             // archives identical to an earlier one
}

type coldArchive struct {
	archive []byte
	r       recipe
}

// job is one scheduled request.
type job struct {
	kind int
	due  time.Time
	hot  int
	r    recipe
	in   input  // kindCompress: the field sent
	body []byte // kindCompress: its bytes
}

// outcome is one finished request as the workload accounts it.
type outcome struct {
	kind      int
	latency   time.Duration
	rawBytes  float64 // field bytes sent (compress) or received (decompress)
	archive   float64 // archive bytes received (compress)
	errOverEp float64
	hit       bool
	err       error
}

// newServeState generates the snapshot pool and the hot fields.
func newServeState(rng *rand.Rand) (*serveState, time.Duration) {
	t0 := time.Now()
	s := &serveState{pool: heatSnapshots(serveN, heatSteps(serveN), poolSize), seen: map[uint64]bool{}}
	for _, i := range pick(rng, hotArchives) {
		s.hotIn = append(s.hotIn, s.field(recipe{snap: i, noise: rng.Uint64()}))
	}
	return s, time.Since(t0)
}

// field builds the request field for r.
func (s *serveState) field(r recipe) input {
	base := s.pool[r.snap]
	lo, hi := base.Data[0], base.Data[0]
	for _, v := range base.Data {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	amp := noiseShare * relBound * (hi - lo)
	data := make([]float64, len(base.Data))
	x := r.noise
	for i, v := range base.Data {
		// splitmix64: a fast generator whose every seed gives a distinct
		// stream.
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		data[i] = v + amp*(2*float64(z>>11)/(1<<53)-1)
	}
	f, err := fieldFromData(data, base.Dims...)
	if err != nil {
		panic(err) // data has the base's length, so dims always match
	}
	return newInput(fmt.Sprintf("Heat3d%d[%d]+noise", serveN, r.snap), f)
}

// newJob draws the next request of the mix from rng.
func (s *serveState) newJob(rng *rand.Rand) job {
	switch rng.Intn(10) {
	case 0, 1, 2, 3, 4:
		r := recipe{snap: rng.Intn(len(s.pool)), noise: rng.Uint64()}
		in := s.field(r)
		return job{kind: kindCompress, r: r, in: in, body: fieldBytes(in.f)}
	case 5, 6, 7:
		return job{kind: kindCold}
	}
	return job{kind: kindHot, hot: rng.Intn(hotArchives)}
}

// compressURL asks lrmserve to compress in with zfp at accuracy ε.
func compressURL(base string, in input) string {
	dims := make([]string, len(in.f.Dims))
	for i, d := range in.f.Dims {
		dims[i] = strconv.Itoa(d)
	}
	return fmt.Sprintf("%s/v1/compress?dims=%s&codec=zfp&accuracy=%s",
		base, strings.Join(dims, ","), strconv.FormatFloat(in.eps, 'g', -1, 64))
}

// post sends one request and reads the whole response, so the connection
// goes back to the keep-alive pool.
func post(client *http.Client, url string, body []byte) (*http.Response, []byte, error) {
	resp, err := client.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return resp, b, nil
}

// do executes j on client; the latency runs from j.due to the end of the
// response. The checks after it are not timed.
func (s *serveState) do(client *http.Client, j job) outcome {
	o := outcome{kind: j.kind}
	var (
		resp *http.Response
		body []byte
		err  error
		cold coldArchive
	)
	switch j.kind {
	case kindCompress:
		resp, body, err = post(client, compressURL(s.url, j.in), j.body)
	case kindCold:
		s.mu.Lock()
		if len(s.cold) == 0 {
			s.mu.Unlock()
			o.err = fmt.Errorf("no unread archive to decompress")
			return o
		}
		cold, s.cold = s.cold[0], s.cold[1:]
		s.mu.Unlock()
		resp, body, err = post(client, s.url+"/v1/decompress", cold.archive)
	case kindHot:
		resp, body, err = post(client, s.url+"/v1/decompress", s.hot[j.hot])
	}
	o.latency = time.Since(j.due)
	if err != nil {
		o.err = err
		return o
	}
	switch j.kind {
	case kindCompress:
		o.rawBytes, o.archive = float64(len(j.body)), float64(len(body))
		s.pushCold(coldArchive{archive: body, r: j.r})
	case kindCold:
		o.rawBytes = float64(len(body))
		if c := resp.Header.Get("X-Lrm-Cache"); c != "miss" {
			o.err = fmt.Errorf("unread archive answered from cache (%q)", c)
			return o
		}
		want := s.field(cold.r)
		got, err := fieldFromBytes(body, want.f.Dims)
		if err != nil {
			o.err = err
			return o
		}
		var ok bool
		if o.errOverEp, ok = want.errOverBound(got); !ok {
			o.err = fmt.Errorf("decode breaks the bound: max error %.6g x eps", o.errOverEp)
		}
	case kindHot:
		o.rawBytes = float64(len(body))
		o.hit = resp.Header.Get("X-Lrm-Cache") == "hit"
		if !bytes.Equal(body, s.ref[j.hot]) {
			o.err = fmt.Errorf("hot archive %d decoded differently from its first decode", j.hot)
		}
	}
	return o
}

// firstSight records an archive's hash and reports whether the run had
// not written the same bytes before. Noise of 0.1ε can vanish in
// quantization, and a second copy of an archive is a cache hit, not a cold
// read.
func (s *serveState) firstSight(archive []byte) bool {
	h := fnv.New64a()
	h.Write(archive)
	sum := h.Sum64()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seen[sum] {
		s.dups++
		return false
	}
	s.seen[sum] = true
	return true
}

// pushCold queues an archive the run has not seen before for a cold read.
func (s *serveState) pushCold(c coldArchive) {
	if !s.firstSight(c.archive) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cold = append(s.cold, c)
	if len(s.cold) > coldCapacity {
		s.cold = s.cold[len(s.cold)-coldCapacity:]
	}
}

// newClient returns a client that holds at most one connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// setupServer measures one set-up: start the server, wait for a healthy
// /healthz, and complete a priming compress. It returns the running server.
func setupServer(prime input) (*server, time.Duration, error) {
	t0 := time.Now()
	srv, err := startServer(true)
	if err != nil {
		return nil, 0, err
	}
	client := newClient()
	defer client.CloseIdleConnections()
	resp, err := client.Get(srv.url + "/healthz")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz status %d", resp.StatusCode)
		}
	}
	if err == nil {
		_, _, err = post(client, compressURL(srv.url, prime), fieldBytes(prime.f))
	}
	d := time.Since(t0)
	if err != nil {
		_ = srv.stop() // the set-up error is the one to report
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return srv, d, nil
}

// serveTally accumulates outcomes of one phase.
type serveTally struct {
	compMs, decompMs       []float64
	compRaw, decompRaw     float64
	archive                float64
	hot, hotHits, requests int
	worstErr               float64
}

func (t *serveTally) add(rep *workloadReport, o outcome) {
	rep.Attempted++
	t.requests++
	if o.err != nil {
		rep.fail("%s: %v", kindName(o.kind), o.err)
		return
	}
	ms := o.latency.Seconds() * 1e3
	switch o.kind {
	case kindCompress:
		t.compMs = append(t.compMs, ms)
		t.compRaw += o.rawBytes
		t.archive += o.archive
	default:
		t.decompMs = append(t.decompMs, ms)
		t.decompRaw += o.rawBytes
	}
	if o.kind == kindHot {
		t.hot++
		if o.hit {
			t.hotHits++
		}
	}
	t.worstErr = math.Max(t.worstErr, o.errOverEp)
}

func kindName(k int) string {
	return [...]string{"compress", "cold decompress", "hot decompress"}[k]
}

// arrivals returns n arrival offsets of a Poisson process of the given rate
// conditioned on n arrivals in [0, n/rate): sorted uniform draws. The
// offered rate is then exactly the planned one.
func arrivals(rng *rand.Rand, n int, rate float64) []time.Duration {
	span := float64(n) / rate
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Float64() * span * float64(time.Second))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// openLoop sends one request per arrival offset over len(clients)
// connections: next builds each request before it is due, and do runs it on
// a connection, timing it from its due time. A request due while every
// connection is busy waits in a queue, so its latency includes the wait. It
// returns the outcomes in completion order, how late the generator handed
// each request over, and the time from the first hand-over to the last.
func openLoop(clients []*http.Client, offsets []time.Duration, next func() job, do func(*http.Client, job) outcome) (outs []outcome, lagMs []float64, span time.Duration) {
	jobs := make(chan job, len(offsets)) // never blocks the generator
	results := make(chan outcome, len(offsets))
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for j := range jobs {
				results <- do(c, j)
			}
		}(c)
	}
	start := time.Now()
	var first, last time.Time
	for i, off := range offsets {
		j := next()
		j.due = start.Add(off)
		time.Sleep(time.Until(j.due))
		now := time.Now()
		lagMs = append(lagMs, now.Sub(j.due).Seconds()*1e3)
		if i == 0 {
			first = now
		}
		last = now
		jobs <- j
	}
	close(jobs)
	wg.Wait()
	close(results)
	for o := range results {
		outs = append(outs, o)
	}
	return outs, lagMs, last.Sub(first)
}

// closedLoop runs every client back to back for d and returns the outcomes
// and the elapsed time. Each client draws its requests from its own
// generator, seeded from rng: a generator seeded like the run's own would
// replay the open loop's requests and write the same archives again.
func (s *serveState) closedLoop(rng *rand.Rand, clients []*http.Client, d time.Duration) ([]outcome, time.Duration) {
	var mu sync.Mutex
	var outs []outcome
	var wg sync.WaitGroup
	seeds := make([]int64, len(clients))
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	start := time.Now()
	for i, c := range clients {
		wg.Add(1)
		go func(c *http.Client, rng *rand.Rand) {
			defer wg.Done()
			var mine []outcome
			for time.Since(start) < d {
				j := s.newJob(rng)
				j.due = time.Now()
				mine = append(mine, s.do(c, j))
			}
			mu.Lock()
			outs = append(outs, mine...)
			mu.Unlock()
		}(c, rand.New(rand.NewSource(seeds[i])))
	}
	wg.Wait()
	return outs, time.Since(start)
}

// runServeMixed runs the serve workload for d: half open loop, half closed
// loop.
func runServeMixed(seed int64, d time.Duration) (*workloadReport, error) {
	restore := setObservability(true, true) // as cmd/lrmserve runs
	defer restore()
	rng := rand.New(rand.NewSource(seed))
	rep := newWorkloadReport("serve-mixed", false)
	s, gen := newServeState(rng)
	for _, in := range s.hotIn {
		rep.Inputs = append(rep.Inputs, in.fingerprint())
	}
	rep.Extra["gen_s"] = gen.Seconds()

	var setups []float64
	var srv *server
	for r := 0; r < setupReps; r++ {
		freshSetup()
		var dt time.Duration
		var err error
		if srv, dt, err = setupServer(s.hotIn[0]); err != nil {
			return nil, err
		}
		setups = append(setups, dt.Seconds())
		if r < setupReps-1 {
			if err := srv.stop(); err != nil {
				return nil, err
			}
		}
	}
	rep.set("setup_s", median(setups), "s", len(setups))
	defer func() {
		if err := srv.stop(); err != nil {
			rep.problem("server shutdown: %v", err)
		}
	}()
	s.url = srv.url

	clients := make([]*http.Client, serveConns)
	for i := range clients {
		clients[i] = newClient()
		defer clients[i].CloseIdleConnections()
	}
	// Hot archives and their reference decodes, then the unread backlog.
	for i, in := range s.hotIn {
		_, a, err := post(clients[0], compressURL(s.url, in), fieldBytes(in.f))
		if err != nil {
			return nil, fmt.Errorf("hot archive %d: %w", i, err)
		}
		_, ref, err := post(clients[0], s.url+"/v1/decompress", a)
		if err != nil {
			return nil, fmt.Errorf("hot archive %d: %w", i, err)
		}
		s.hot, s.ref = append(s.hot, a), append(s.ref, ref)
		s.firstSight(a)
	}
	for i := 0; i < coldPrefill; i++ {
		r := recipe{snap: rng.Intn(len(s.pool)), noise: rng.Uint64()}
		in := s.field(r)
		_, a, err := post(clients[i%serveConns], compressURL(s.url, in), fieldBytes(in.f))
		if err != nil {
			return nil, fmt.Errorf("prefill: %w", err)
		}
		s.pushCold(coldArchive{archive: a, r: r})
	}

	openD := time.Duration(float64(d) * (1 - closedShare))
	n := int(serveRate * openD.Seconds())
	offsets := arrivals(rng, n, serveRate)

	runtime.GC()
	heap := startHeapSampler()
	h0, m0, rej0 := serveCounters()
	a0 := allocBytes()
	outs, lagMs, span := openLoop(clients, offsets, func() job { return s.newJob(rng) }, s.do)
	allocs := allocBytes() - a0
	h1, m1, rej1 := serveCounters()
	closed, closedD := s.closedLoop(rng, clients, d-openD)
	peak := heap.stop()

	var open, cl serveTally
	for _, o := range outs {
		open.add(rep, o)
	}
	for _, o := range closed {
		cl.add(rep, o)
	}

	rep.setPercentile("compress_p50_ms", open.compMs, 50)
	rep.setPercentile("decompress_p50_ms", open.decompMs, 50)
	all := append(append([]float64(nil), open.compMs...), open.decompMs...)
	rep.setTail("compress_p95_ms", open.compMs, 95)
	rep.setTail("decompress_p95_ms", open.decompMs, 95)
	rep.setTail("request_p99_ms", all, 99)
	// Throughput is the closed loop's: raw bytes over summed request time,
	// as for a library caller. An open-loop request's time also holds the
	// queueing behind a Poisson burst and the wake-up of an idle vCPU, which
	// made the same code read 20% apart from run to run.
	rep.set("compress_mb_s", cl.compRaw/1e6/(sum(cl.compMs)/1e3), "MB/s", len(cl.compMs))
	rep.set("decompress_mb_s", cl.decompRaw/1e6/(sum(cl.decompMs)/1e3), "MB/s", len(cl.decompMs))
	rep.set("capacity_rps", float64(cl.requests)/closedD.Seconds(), "1/s", cl.requests)
	rep.set("ratio", open.compRaw/open.archive, "x", 0)
	rep.set("alloc_mb_per_raw_mb", allocs/(open.compRaw+open.decompRaw), "MB/MB", 0)
	rep.set("live_heap_max_mb", peak/(1<<20), "MiB", 0)

	planned := float64(n-1) / (offsets[n-1] - offsets[0]).Seconds()
	offered := float64(n-1) / span.Seconds()
	lag, err := percentile(lagMs, 99)
	if err != nil {
		rep.problem("loadgen lag: %v", err)
	}
	rep.Extra["loadgen.lag_p99_ms"] = lag
	rep.Extra["loadgen.offered_rps"] = offered
	rep.Extra["loadgen.planned_rps"] = planned
	rep.Extra["open_requests"] = float64(open.requests)
	rep.Extra["closed_requests"] = float64(cl.requests)
	rep.Extra["err_over_bound"] = math.Max(open.worstErr, cl.worstErr)
	if lookups := (h1 - h0) + (m1 - m0); lookups > 0 {
		rep.Extra["serve.cache_hit_rate"] = float64(h1-h0) / float64(lookups)
	}
	if open.hot > 0 {
		rep.Extra["hot_hit_frac"] = float64(open.hotHits) / float64(open.hot)
	}
	rep.Extra["serve.rejected"] = float64(rej1 - rej0)
	rep.Extra["duplicate_archives"] = float64(s.dups)
	if lag > maxLagMs {
		rep.invalid("load generator ran late: lag p99 %.3g ms > %g ms", lag, maxLagMs)
	}
	if math.Abs(offered/planned-1) > maxRateError {
		rep.invalid("offered rate %.1f/s is off the planned %.1f/s by more than %g%%", offered, planned, 100*maxRateError)
	}
	return rep, nil
}
