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

if [ "${1:-}" != "quick" ]; then
	# Concurrent packages under the race detector (the Makefile holds the
	# one package list).
	step make race
	# Trace race-stress: concurrent Start/End/Snapshot/export/Reset on the
	# trace recorder specifically, repeated so interleavings vary.
	step go test -race -run TestConcurrentTraceStress -count=2 ./internal/obs/trace
	# Profiler race-stress: real profiling windows rotating concurrently
	# with /debug/profile + /debug/flame scrapes and registry Reset.
	step go test -race -run TestConcurrentWindowsAndScrapes -count=2 ./internal/obs/profile
	# One iteration of the kernel micro-benchmarks (exact SVD, Jacobi
	# EigenSym, covariance, 2-D Haar, the SZ Huffman coder) keeps them
	# compiling and running.
	step go test -run '^$' -bench 'SVD|EigenSym|Covariance' -benchtime 1x ./internal/linalg/
	step go test -run '^$' -bench Haar2D -benchtime 1x ./internal/wavelet/
	step go test -run '^$' -bench 'Encode|Decode' -benchtime 1x ./internal/huffman/
	# Trace smoke: one second of the benchmark's traced precond-zfp pass
	# (lrm-bench/3 fails on a failed operation, a broken error bound or
	# layer times that do not add up), exported as Chrome trace JSON,
	# which must contain the pipeline root span.
	trace_json=$(mktemp)
	step bash lrmbench3/run.sh -workload precond-zfp -seed 1 -seconds 1 -trace 1 -chrome "$trace_json"
	echo "==> trace smoke: core.compress root present"
	grep -q '"core.compress"' "$trace_json" || {
		echo "trace smoke: core.compress span missing from $trace_json" >&2
		exit 1
	}
	rm -f "$trace_json"
	# Serving smoke: the in-process lrmserve under a short mixed load must
	# produce zero 4xx/5xx, zero transport errors, and a loopback p99 under
	# a generous ceiling (real lifecycle bugs — deadlock under admission
	# pressure, drain racing the handlers — blow straight past it).
	step go run ./cmd/lrmbench -serve-clients 4 -serve-duration 3s -serve-p99 2s
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
