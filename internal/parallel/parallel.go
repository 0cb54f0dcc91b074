// Package parallel provides the bounded fork/join worker pool and scratch
// buffer arenas behind the codec kernels and the chunked container.
//
// Three properties shape the API:
//
//   - Workers == 1 (or a degenerate range) runs the loop inline on the
//     calling goroutine, with no pool, no channels and no extra
//     allocation: it IS the serial execution, not an emulation of it.
//     Kernels therefore keep no serial twin of a sharded loop.
//   - Config.WorkersFor is the only size cutover. A codec resolves its
//     worker count from it once per input and passes that count to every
//     kernel, which runs one ForShard (or For) loop and has no size gate
//     of its own.
//   - Work is partitioned deterministically. ForShard always cuts [0, n)
//     into the same contiguous ranges for a given (workers, n), so
//     encoders that write one private bitstream per shard and concatenate
//     them in shard order produce byte-identical output to a single
//     serial pass, regardless of how the goroutines interleave.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lrm/internal/obs"
)

// Hoisted pool metrics (see internal/obs). parallel.queue_depth is the
// high-water mark of tasks submitted to one fork/join batch;
// stage.parallel.worker_busy accumulates per-worker busy nanoseconds (flushed
// once per worker at join); parallel.task.ns is the per-task latency
// histogram, recorded only on the pooled path so the inline serial loop
// stays timing-free.
var (
	obsTasks      = obs.GetCounter("parallel.tasks")
	obsQueueDepth = obs.GetGauge("parallel.queue_depth")
	obsTaskNs     = obs.GetHistogram("parallel.task.ns", nil)
)

// Config selects the degree of parallelism for a compression run. The zero
// value means "use DefaultWorkers()"; Workers == 1 forces fully serial
// execution on the calling goroutine.
type Config struct {
	// Workers is the maximum number of concurrently running worker
	// goroutines. 0 defaults to DefaultWorkers(); negative values are
	// treated as 1.
	Workers int
	// MinShardBytes is the smallest per-shard input (in bytes of the data
	// being cut) worth forking the pool for: WorkersFor reduces the
	// effective worker count until every shard carries at least this much,
	// so tiny inputs never pay fork/join and stream-concatenation overhead
	// they cannot amortize. 0 defaults to DefaultMinShardBytes; negative
	// disables the cutover (every resolved worker count is used as-is).
	MinShardBytes int64
}

// DefaultMinShardBytes is the per-shard input size below which the pool
// costs more than it saves. The retired lrm-bench/2 harness measured it
// (BENCH_5.json, see git history): zfp on a 256 KiB field regressed under
// workers=4 while a 2 MiB field (512 KiB/shard) did not, so the default
// cutover sits at 512 KiB.
const DefaultMinShardBytes = 512 << 10

// Resolve returns the effective worker count for the config.
func (c Config) Resolve() int {
	if c.Workers == 0 {
		return DefaultWorkers()
	}
	if c.Workers < 1 {
		return 1
	}
	return c.Workers
}

// minShardBytes resolves the cutover threshold.
func (c Config) minShardBytes() int64 {
	if c.MinShardBytes == 0 {
		return DefaultMinShardBytes
	}
	if c.MinShardBytes < 0 {
		return 0
	}
	return c.MinShardBytes
}

// WorkersFor returns the worker count to use for an input of totalBytes:
// Resolve(), clamped so every shard gets at least MinShardBytes of input.
// The clamp only ever lowers the count (never below 1), so a codec that
// shards its input across WorkersFor(n) workers still produces the
// byte-identical stream of any other worker count — the cutover trades
// pool overhead, never format.
func (c Config) WorkersFor(totalBytes int64) int {
	w := c.Resolve()
	if w <= 1 {
		return w
	}
	min := c.minShardBytes()
	if min <= 0 {
		return w
	}
	if totalBytes < min {
		return 1
	}
	if per := totalBytes / min; int64(w) > per {
		w = int(per)
	}
	return w
}

// DefaultWorkers is the pool size used when no explicit worker count is
// configured: one worker per schedulable CPU.
func DefaultWorkers() int {
	return runtime.GOMAXPROCS(0)
}

// For runs fn(i) for every i in [0, n), using at most `workers` concurrent
// goroutines, and returns only after every call has completed (fork/join).
// With workers <= 1 or n <= 1 the loop runs inline in index order. Indices
// are handed out through a shared cursor, so call order across workers is
// nondeterministic: fn must only touch state owned by index i (or state
// protected by the caller).
func For(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	rec := obs.Enabled()
	if rec {
		obsTasks.Add(int64(n))
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if rec {
		obsQueueDepth.SetMax(int64(n))
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			var busyNs, done int64
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					break
				}
				if rec {
					t0 := time.Now()
					fn(i)
					ns := time.Since(t0).Nanoseconds()
					busyNs += ns
					done++
					obsTaskNs.Observe(ns)
				} else {
					fn(i)
				}
			}
			if rec && done > 0 {
				obs.StageAdd("parallel.worker_busy", busyNs, done)
			}
		}()
	}
	wg.Wait()
}

// Shards reports how many contiguous ranges ForShard will use for n items
// at the given worker count: min(workers, n), at least 1 for n > 0.
func Shards(workers, n int) int {
	if n <= 0 {
		return 0
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		return n
	}
	return workers
}

// ShardBounds returns the half-open range [lo, hi) of shard s when n items
// are cut into `shards` near-equal contiguous pieces. The partition is a
// pure function of (n, shards): it never depends on scheduling.
func ShardBounds(n, shards, s int) (lo, hi int) {
	return s * n / shards, (s + 1) * n / shards
}

// ForShard cuts [0, n) into Shards(workers, n) contiguous ranges and runs
// fn(shard, lo, hi) for each, with at most `workers` goroutines. The shard
// index is dense in [0, Shards(workers, n)), so callers can give every
// shard a private output slot and merge the slots in shard order after the
// join.
func ForShard(workers, n int, fn func(shard, lo, hi int)) {
	s := Shards(workers, n)
	if s == 0 {
		return
	}
	if s == 1 {
		fn(0, 0, n)
		return
	}
	For(workers, s, func(i int) {
		lo, hi := ShardBounds(n, s, i)
		fn(i, lo, hi)
	})
}
