package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"

	"lrm/internal/obs"
)

func TestConfigResolve(t *testing.T) {
	if got := (Config{}).Resolve(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("zero config resolved to %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	if got := (Config{Workers: -3}).Resolve(); got != 1 {
		t.Fatalf("negative workers resolved to %d, want 1", got)
	}
	for _, w := range []int{1, 2, 7, 64} {
		if got := (Config{Workers: w}).Resolve(); got != w {
			t.Fatalf("Workers=%d resolved to %d", w, got)
		}
	}
}

// TestDefaultWorkers checks that the default pool size (the zero Config) is
// one worker per schedulable CPU and follows GOMAXPROCS when it changes,
// rather than being fixed when the package loads.
func TestDefaultWorkers(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, procs := range []int{1, 3, prev} {
		runtime.GOMAXPROCS(procs)
		if got := (Config{}).Resolve(); got != procs {
			t.Fatalf("GOMAXPROCS %d: zero config resolved to %d", procs, got)
		}
		if got := (Config{MinShardBytes: -1}).WorkersFor(1); got != procs {
			t.Fatalf("GOMAXPROCS %d: default-worker WorkersFor with no cutover = %d", procs, got)
		}
	}
}

// TestForEveryIndexOnce checks that For visits each index exactly once at
// every worker count, including degenerate ones.
func TestForEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 3, 8, 100} {
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			visits := make([]atomic.Int32, max(n, 1))
			For(workers, n, func(i int) {
				if i < 0 || i >= n {
					t.Errorf("workers=%d n=%d: index %d out of range", workers, n, i)
					return
				}
				visits[i].Add(1)
			})
			for i := 0; i < n; i++ {
				if got := visits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, got)
				}
			}
		}
	}
}

// TestForSerialIsInline checks the documented Workers<=1 contract: the loop
// runs on the calling goroutine in index order, and ForShard at one worker
// is a single inline fn(0, 0, n) call that never reaches the pool — the
// one-shard case of every codec kernel is its serial code.
func TestForSerialIsInline(t *testing.T) {
	pm := obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(pm) })

	var order []int
	For(1, 10, func(i int) { order = append(order, i) }) // no sync: must be inline
	for i, v := range order {
		if v != i {
			t.Fatalf("serial For out of order at %d: got %v", i, order)
		}
	}
	if len(order) != 10 {
		t.Fatalf("serial For visited %d of 10 indices", len(order))
	}

	pooled := obsTaskNs.Snapshot().Count
	var calls [][3]int
	ForShard(1, 1000, func(s, lo, hi int) { calls = append(calls, [3]int{s, lo, hi}) }) // no sync: must be inline
	if len(calls) != 1 || calls[0] != [3]int{0, 0, 1000} {
		t.Fatalf("ForShard(1, 1000) made calls %v, want one fn(0, 0, 1000)", calls)
	}
	if d := obsTaskNs.Snapshot().Count - pooled; d != 0 {
		t.Fatalf("ForShard(1, 1000) recorded %d pooled parallel.task.ns samples, want 0", d)
	}
}

func TestShardBoundsPartition(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16, 97, 1024} {
		for _, workers := range []int{1, 2, 3, 7, 16, 200} {
			s := Shards(workers, n)
			if s < 1 || s > n || s > max(workers, 1) {
				t.Fatalf("Shards(%d,%d) = %d out of range", workers, n, s)
			}
			prev := 0
			for i := 0; i < s; i++ {
				lo, hi := ShardBounds(n, s, i)
				if lo != prev {
					t.Fatalf("n=%d shards=%d: shard %d starts at %d, want %d", n, s, i, lo, prev)
				}
				if hi < lo {
					t.Fatalf("n=%d shards=%d: shard %d empty-negative [%d,%d)", n, s, i, lo, hi)
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("n=%d shards=%d: shards cover %d of %d", n, s, prev, n)
			}
		}
	}
	if got := Shards(8, 0); got != 0 {
		t.Fatalf("Shards(8,0) = %d, want 0", got)
	}
}

// TestForShardCoverage checks that the shard callbacks jointly cover [0, n)
// exactly once and that shard indices are dense.
func TestForShardCoverage(t *testing.T) {
	for _, workers := range []int{1, 2, 5, 16} {
		for _, n := range []int{1, 3, 16, 1000} {
			covered := make([]atomic.Int32, n)
			var shardsSeen atomic.Int32
			ForShard(workers, n, func(shard, lo, hi int) {
				shardsSeen.Add(1)
				if shard < 0 || shard >= Shards(workers, n) {
					t.Errorf("shard index %d out of range", shard)
				}
				for i := lo; i < hi; i++ {
					covered[i].Add(1)
				}
			})
			if int(shardsSeen.Load()) != Shards(workers, n) {
				t.Fatalf("workers=%d n=%d: %d shard calls, want %d", workers, n, shardsSeen.Load(), Shards(workers, n))
			}
			for i := 0; i < n; i++ {
				if got := covered[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d covered %d times", workers, n, i, got)
				}
			}
		}
	}
}

// TestArenas checks the length contract and that recycled buffers keep
// capacity. Contents after get are unspecified, so only shape is asserted.
func TestArenas(t *testing.T) {
	f := Floats(100)
	if len(f) != 100 {
		t.Fatalf("Floats(100) len %d", len(f))
	}
	PutFloats(f)
	f2 := Floats(50)
	if len(f2) != 50 {
		t.Fatalf("Floats(50) len %d", len(f2))
	}
	PutFloats(f2)

	i64 := Int64s(17)
	if len(i64) != 17 {
		t.Fatalf("Int64s(17) len %d", len(i64))
	}
	PutInt64s(i64)
	u64 := Uint64s(9)
	if len(u64) != 9 {
		t.Fatalf("Uint64s(9) len %d", len(u64))
	}
	PutUint64s(u64)
	is := Ints(3)
	if len(is) != 3 {
		t.Fatalf("Ints(3) len %d", len(is))
	}
	PutInts(is)

	// Zero-length slices round-trip without panicking.
	PutFloats(Floats(0))
	PutInts(nil)
}

// TestArenasSteadyStateAllocFree pins the arena contract that a Get/Put
// cycle allocates nothing once the pool is warm: the slice headers that
// sync.Pool stores are recycled, not re-allocated on every Put. The race
// detector makes sync.Pool drop items on purpose, so the test skips there;
// the plain `go test` run keeps the pin.
func TestArenasSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	cases := []struct {
		name  string
		cycle func()
	}{
		{"Floats", func() { PutFloats(Floats(256)) }},
		{"Int64s", func() { PutInt64s(Int64s(256)) }},
		{"Uint64s", func() { PutUint64s(Uint64s(256)) }},
		{"Ints", func() { PutInts(Ints(256)) }},
		{"Bytes", func() { PutBytes(Bytes(256)) }},
	}
	for _, c := range cases {
		c.cycle() // warm the pool
		if got := testing.AllocsPerRun(100, c.cycle); got != 0 {
			t.Errorf("%s: %v allocs per Get/Put cycle, want 0", c.name, got)
		}
	}
}

// TestArenaSizeClasses pins the size classes: a large buffer put back is
// never handed to a small request, and a kernel that alternates a small
// and a large scratch buffer allocates nothing once both classes are warm.
func TestArenaSizeClasses(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const big = 1 << 18
	PutFloats(Floats(big))
	if s := Floats(64); cap(s) > 64 {
		t.Errorf("Floats(64) after a %d-element put: cap %d, want <= 64", big, cap(s))
	}
	if s := Floats(65); cap(s) < 65 || cap(s) > 72 {
		t.Errorf("Floats(65): cap %d, want 65..72", cap(s))
	}
	cycle := func() {
		PutFloats(Floats(64))
		PutFloats(Floats(big))
	}
	cycle() // warm both classes
	if got := testing.AllocsPerRun(50, cycle); got != 0 {
		t.Errorf("alternating 64/%d cycle: %v allocs, want 0", big, got)
	}
}

// TestArenaClassOverhead pins what a class costs in memory: the capacity
// a request gets is at least the request and, from 16 elements on, less
// than 9/8 of it (exact below), including fields just past a power of two
// such as 65³ and 81³. A put slice is filed where every request it serves
// fits.
func TestArenaClassOverhead(t *testing.T) {
	sizes := []int{65 * 65 * 65, 81 * 81 * 81, 1 << 18, 1<<18 + 1, 1<<30 - 1}
	for n := 0; n < 5000; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		c := classFloor(n)
		if classSize(c) > n || classSize(c+1) <= n {
			t.Fatalf("n=%d: class %d spans [%d, %d)", n, c, classSize(c), classSize(c+1))
		}
		if classSize(c) < n {
			c++
		}
		if got := classSize(c); got < n || (n < 16 && got != n) || (n >= 16 && 8*got >= 9*n) {
			t.Fatalf("n=%d: class size %d", n, got)
		}
	}
	for _, n := range []int{65 * 65 * 65, 81 * 81 * 81} {
		s := Floats(n)
		if cap(s) < n || 8*cap(s) >= 9*n {
			t.Errorf("Floats(%d): cap %d, want < 9/8 of the request", n, cap(s))
		}
		PutFloats(s)
	}
}

// TestPoolStress hammers For/ForShard and the arenas from many goroutines at
// once. Its real assertion is the -race detector (the verify gate runs this
// package under -race): any unsynchronised access in the pool internals or
// arena recycling shows up here.
func TestPoolStress(t *testing.T) {
	const rounds = 50
	var total atomic.Int64
	For(8, rounds, func(r int) {
		n := 64 + r
		buf := Floats(n)
		for i := range buf {
			buf[i] = float64(i)
		}
		sums := make([]float64, Shards(4, n))
		ForShard(4, n, func(shard, lo, hi int) {
			scratch := Int64s(hi - lo)
			s := 0.0
			for i := lo; i < hi; i++ {
				scratch[i-lo] = int64(buf[i])
				s += buf[i]
			}
			PutInt64s(scratch)
			sums[shard] = s
		})
		got := 0.0
		for _, s := range sums {
			got += s
		}
		want := float64(n*(n-1)) / 2
		if got != want {
			t.Errorf("round %d: shard sum %v, want %v", r, got, want)
		}
		PutFloats(buf)
		total.Add(int64(n))
	})
	if total.Load() == 0 {
		t.Fatal("stress loop did not run")
	}
}

func TestWorkersForCutover(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		bytes int64
		want  int
	}{
		// Tiny inputs never fork, whatever the worker budget says.
		{"small-input-serial", Config{Workers: 4}, 256 << 10, 1},
		{"below-threshold", Config{Workers: 8}, DefaultMinShardBytes - 1, 1},
		// At exactly one shard's worth, one worker.
		{"one-shard", Config{Workers: 8}, DefaultMinShardBytes, 1},
		// Medium inputs clamp to totalBytes / DefaultMinShardBytes shards.
		{"clamped", Config{Workers: 8}, 2 << 20, 4},
		{"unclamped", Config{Workers: 2}, 64 << 20, 2},
		// Workers == 1 stays serial regardless of size.
		{"serial", Config{Workers: 1}, 1 << 30, 1},
		// A custom threshold moves the cutover.
		{"custom-threshold", Config{Workers: 8, MinShardBytes: 1 << 10}, 16 << 10, 8},
		{"custom-threshold-clamp", Config{Workers: 8, MinShardBytes: 1 << 20}, 2 << 20, 2},
		// Negative disables the cutover entirely.
		{"disabled", Config{Workers: 8, MinShardBytes: -1}, 1, 8},
		{"disabled-zero-bytes", Config{Workers: 3, MinShardBytes: -1}, 0, 3},
	}
	for _, tc := range cases {
		if got := tc.cfg.WorkersFor(tc.bytes); got != tc.want {
			t.Errorf("%s: WorkersFor(%d) = %d, want %d", tc.name, tc.bytes, got, tc.want)
		}
	}
}

func TestWorkersForNeverExceedsResolve(t *testing.T) {
	for workers := 1; workers <= 16; workers++ {
		for _, bytes := range []int64{0, 1, 4 << 10, 512 << 10, 1 << 20, 1 << 30} {
			cfg := Config{Workers: workers}
			got := cfg.WorkersFor(bytes)
			if got < 1 || got > cfg.Resolve() {
				t.Fatalf("WorkersFor(%d) with %d workers = %d, out of [1,%d]",
					bytes, workers, got, cfg.Resolve())
			}
		}
	}
}
