GO ?= go

.PHONY: build vet fmt lint lint-json test invariants faultsweep race race-trace race-profile fuzz bench serve-smoke verify

build:
	$(GO) build ./...
	$(GO) build -tags invariants ./...

vet:
	$(GO) vet ./...

fmt:
	@bad=$$(gofmt -l .); if [ -n "$$bad" ]; then echo "gofmt needed on:"; echo "$$bad"; exit 1; fi

# The repo's own analyzers (cmd/lrmlint); non-zero exit on any finding.
lint:
	$(GO) run ./cmd/lrmlint ./...

# Machine-readable lint report: JSON diagnostics on stdout ([] when clean).
lint-json:
	$(GO) run ./cmd/lrmlint -json ./...

test:
	$(GO) test ./...

# Run the instrumented packages with the runtime assertions compiled in.
invariants:
	$(GO) test -tags invariants ./internal/compress/... ./internal/reduce/... ./internal/core/...

# Fault-injection sweep: every archive mutation must yield a classified
# error (never a panic, never an unbounded allocation).
faultsweep:
	$(GO) test -run 'TestSweepCorpus|TestPartialDecodeMetricsUnderSweep' -count=1 ./internal/faultinject

# Concurrent packages under the race detector.
race:
	$(GO) test -race ./internal/obs/... ./internal/parallel/... ./internal/mpi/... ./internal/core/... ./internal/sim/laplace/... ./internal/sim/heat3d/... ./internal/compress/... ./internal/huffman/... ./internal/faultinject/... ./internal/linalg/... ./internal/serve/... ./cmd/lrmserve/...

# Trace recorder race-stress in isolation: concurrent Start/End against
# Snapshot/export/Reset, repeated so interleavings vary.
race-trace:
	$(GO) test -race -run TestConcurrentTraceStress -count=2 ./internal/obs/trace

# Continuous-profiler race-stress: real windows rotating concurrently with
# /debug/profile + /debug/flame scrapes and registry Reset.
race-profile:
	$(GO) test -race -run TestConcurrentWindowsAndScrapes -count=2 ./internal/obs/profile

# The benchmark (lrm-bench/3, BENCHMARK.json): every workload, end to end.
bench:
	bash lrmbench3/run.sh -workload all -seed 1

# Serving smoke: in-process lrmserve under a short mixed load; fails on
# any 4xx/5xx, any transport error, or a loopback p99 above 2s.
serve-smoke:
	$(GO) run ./cmd/lrmbench -serve-clients 4 -serve-duration 3s -serve-p99 2s

# Short mutation pass over the decoder fuzz targets (seeds always run in
# plain `make test`; this adds -fuzztime of coverage-guided input search).
fuzz:
	$(GO) test -fuzz=FuzzDecompress -fuzztime=10s -run='^$$' ./internal/compress/sz
	$(GO) test -fuzz=FuzzDecompress -fuzztime=10s -run='^$$' ./internal/compress/zfp
	$(GO) test -fuzz=FuzzDecompress -fuzztime=10s -run='^$$' ./internal/compress/fpc
	$(GO) test -fuzz=FuzzDecompressChunked -fuzztime=10s -run='^$$' ./internal/core
	$(GO) test -fuzz=FuzzWriteChromeTrace -fuzztime=10s -run='^$$' ./internal/obs/trace
	$(GO) test -fuzz=FuzzHistoryQuery -fuzztime=10s -run='^$$' ./internal/obs/tsdb
	$(GO) test -fuzz=FuzzParsePprof -fuzztime=10s -run='^$$' ./internal/obs/pprofparse
	$(GO) test -fuzz=FuzzDecode -fuzztime=10s -run='^$$' ./internal/huffman

verify:
	./verify.sh
