package main

import (
	"runtime/metrics"
	"time"
)

// runtimeValue reads one cumulative runtime/metrics value as a float.
func runtimeValue(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	switch s[0].Value.Kind() {
	case metrics.KindUint64:
		return float64(s[0].Value.Uint64())
	case metrics.KindFloat64:
		return s[0].Value.Float64()
	}
	return 0
}

// allocBytes is the process's cumulative heap allocation.
func allocBytes() float64 { return runtimeValue("/gc/heap/allocs:bytes") }

// gcCPUSeconds returns the runtime's estimate of CPU time spent in GC and in
// total. Both are updated at GC cycles, so short windows read coarse.
func gcCPUSeconds() (gc, total float64) {
	return runtimeValue("/cpu/classes/gc/total:cpu-seconds"), runtimeValue("/cpu/classes/total:cpu-seconds")
}

// heapSampler records the largest live heap (the heap marked live at the
// most recent GC) seen while it runs, sampling every 10 ms.
type heapSampler struct {
	stopc chan struct{}
	done  chan float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		peak := 0.0
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, float64(s[0].Value.Uint64()))
			select {
			case <-h.stopc:
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak live heap in bytes.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	return <-h.done
}
