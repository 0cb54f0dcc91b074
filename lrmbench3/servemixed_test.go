package main

import (
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// A server that stalls must show up in the latency of every request that
// was due during the stall, and must not hold the generator back.
func TestOpenLoopTimesFromScheduledSend(t *testing.T) {
	const stall = 300 * time.Millisecond
	var stalled atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if stalled.CompareAndSwap(false, true) {
			time.Sleep(stall)
		}
		_, _ = io.Copy(io.Discard, r.Body)
	}))
	defer srv.Close()
	client := newClient()
	defer client.CloseIdleConnections()

	offsets := make([]time.Duration, 20)
	for i := range offsets {
		offsets[i] = time.Duration(i) * 10 * time.Millisecond
	}
	do := func(c *http.Client, j job) outcome {
		_, _, err := post(c, srv.URL, nil)
		return outcome{kind: j.kind, latency: time.Since(j.due), err: err}
	}
	outs, lagMs, span := openLoop([]*http.Client{client}, offsets, func() job { return job{kind: kindHot} }, do)

	if len(outs) != len(offsets) || len(lagMs) != len(offsets) {
		t.Fatalf("%d outcomes and %d lags for %d requests", len(outs), len(lagMs), len(offsets))
	}
	// One connection completes requests in order, so outs[i] was due at
	// offsets[i]; every request due before the stall ended waited for it.
	for i, o := range outs {
		if o.err != nil {
			t.Fatalf("request %d: %v", i, o.err)
		}
		if wait := stall - offsets[i]; wait > 0 && o.latency < wait {
			t.Errorf("request %d due at %v has latency %v, less than the %v it waited behind the stall", i, offsets[i], o.latency, wait)
		}
	}
	for i, l := range lagMs {
		if l < 0 || l > 50 {
			t.Errorf("request %d handed over %v ms late; the stall must not hold the generator", i, l)
		}
	}
	if want := offsets[len(offsets)-1]; span < want || span > want+50*time.Millisecond {
		t.Errorf("generator span %v, want about %v", span, want)
	}
}

func TestArrivalsOfferThePlannedRate(t *testing.T) {
	const n, rate = 1000, 250.0
	a := arrivals(rand.New(rand.NewSource(1)), n, rate)
	if len(a) != n {
		t.Fatalf("%d arrivals, want %d", len(a), n)
	}
	for i := 1; i < n; i++ {
		if a[i] < a[i-1] {
			t.Fatalf("arrivals not sorted at %d", i)
		}
	}
	if last := a[n-1].Seconds(); last > n/rate || last < 0.99*n/rate {
		t.Errorf("last arrival at %vs, want just under %vs", last, n/rate)
	}
}
