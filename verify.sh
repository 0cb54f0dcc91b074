#!/bin/sh
# Tier-1.5 verification gate: everything CI runs, runnable locally.
#
#   ./verify.sh         full gate (build, vet, fmt, lint, tests, race, fuzz)
#   ./verify.sh quick   skip the race-detector and fuzz passes
#
# Exits non-zero on the first failure.
set -eu

cd "$(dirname "$0")"

step() {
	echo "==> $*"
	"$@"
}

fmtcheck() {
	bad=$(gofmt -l .)
	if [ -n "$bad" ]; then
		echo "gofmt needed on:" >&2
		echo "$bad" >&2
		return 1
	fi
}

step go build ./...
step go build -tags invariants ./...
step go vet ./...
echo "==> gofmt -l ."
fmtcheck
step go run ./cmd/lrmlint ./...
step go test ./...
# The benchmark (lrmbench3/) is a separate module that ./... skips, so a
# library API change could break it unseen: vet it and run its short tests.
echo "==> lrmbench3: go vet ./... && go test -short ./..."
(cd lrmbench3 && GOFLAGS=-mod=readonly GOPROXY=off go vet ./... && go test -short ./...)
# Invariant-instrumented packages: the assertions themselves must hold on
# every test input.
step go test -tags invariants ./internal/compress/... ./internal/reduce/... ./internal/core/...
# Fault-injection sweep: every archive mutation must yield a classified
# error (never a panic, never an unbounded allocation).
step go test -run 'TestSweepCorpus|TestPartialDecodeMetricsUnderSweep' -count=1 ./internal/faultinject
# Checked-in artifact gate: BENCH_5 and BENCH_7 were measured on the same
# host, so a tight tolerance applies — no cell may have lost more than 25%
# throughput between the checked-in baselines.
step go run ./cmd/lrmbench -compare -tolerance 0.25 BENCH_5.json BENCH_7.json

if [ "${1:-}" != "quick" ]; then
	# Concurrent packages under the race detector.
	step go test -race ./internal/obs/... ./internal/parallel/... ./internal/mpi/... ./internal/core/... ./internal/sim/laplace/... ./internal/sim/heat3d/... ./internal/compress/... ./internal/huffman/... ./internal/faultinject/... ./internal/linalg/... ./internal/serve/... ./cmd/lrmserve/...
	# Trace race-stress: concurrent Start/End/Snapshot/export/Reset on the
	# trace recorder specifically, repeated so interleavings vary.
	step go test -race -run TestConcurrentTraceStress -count=2 ./internal/obs/trace
	# Profiler race-stress: real profiling windows rotating concurrently
	# with /debug/profile + /debug/flame scrapes and registry Reset.
	step go test -race -run TestConcurrentWindowsAndScrapes -count=2 ./internal/obs/profile
	# Benchmark smoke: one iteration of the JSON benchmark harness proves
	# the artifact pipeline end to end without paying full measurement cost,
	# and the traced pass exercises span propagation through the pool.
	step go run ./cmd/lrmbench -iters 1 -stats -profile-top -out /tmp/lrmbench-smoke.json -trace /tmp/lrmbench-trace.json
	# One iteration of the kernel micro-benchmarks (exact SVD, Jacobi
	# EigenSym, 2-D Haar, the SZ Huffman coder) keeps them compiling and
	# running.
	step go test -run '^$' -bench 'SVD|EigenSym' -benchtime 1x ./internal/linalg/
	step go test -run '^$' -bench Haar2D -benchtime 1x ./internal/wavelet/
	step go test -run '^$' -bench 'Encode|Decode' -benchtime 1x ./internal/huffman/
	# The trace artifact must contain the pipeline root span (lrmbench
	# already refuses to write a file that is not valid JSON).
	echo "==> trace smoke: core.compress root present"
	grep -q '"core.compress"' /tmp/lrmbench-trace.json || {
		echo "trace smoke: core.compress span missing from /tmp/lrmbench-trace.json" >&2
		exit 1
	}
	# Serving smoke: the in-process lrmserve under a short mixed load must
	# produce zero 5xx, zero transport errors, and a loopback p99 under a
	# generous ceiling (real lifecycle bugs — deadlock under admission
	# pressure, drain racing the handlers — blow straight past it).
	step go run ./cmd/lrmbench -serve-load -serve-clients 4 -serve-duration 3s -serve-p99 2s
	# Perf gate: compare the smoke run against the checked-in artifact. The
	# wide 0.75 tolerance absorbs machine-to-machine variance; real
	# regressions (parallel kernels silently serialized, tracing left
	# enabled on the hot path) overshoot it.
	step go run ./cmd/lrmbench -compare -tolerance 0.75 BENCH_5.json /tmp/lrmbench-smoke.json
	# Short fuzz pass over the decoder targets (seed corpus + a few seconds
	# of mutation each). -fuzz accepts a single package per invocation.
	for pkg in ./internal/compress/sz ./internal/compress/zfp ./internal/compress/fpc; do
		step go test -fuzz=FuzzDecompress -fuzztime=10s -run='^$' "$pkg"
	done
	step go test -fuzz=FuzzDecompressChunked -fuzztime=10s -run='^$' ./internal/core
	step go test -fuzz=FuzzWriteChromeTrace -fuzztime=10s -run='^$' ./internal/obs/trace
	step go test -fuzz=FuzzHistoryQuery -fuzztime=10s -run='^$' ./internal/obs/tsdb
	step go test -fuzz=FuzzParsePprof -fuzztime=10s -run='^$' ./internal/obs/pprofparse
	# Differential fuzz of the table-driven Huffman decoder against the
	# per-bit reference decoder.
	step go test -fuzz=FuzzDecode -fuzztime=10s -run='^$' ./internal/huffman
fi

echo "==> verify OK"
