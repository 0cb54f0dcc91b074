#!/usr/bin/env bash
# Builds the lrm-bench/3 benchmark from source and runs it with the given
# flags. Run from the repository root, for example:
#
#   bash lrmbench3/run.sh --workload direct-sz --seed 1 --seconds 28 --trace 0
#
# Everything the build writes (Go build cache, module cache, temporary files
# and the binary) stays under .bench_build/ in the current directory, and
# nothing is fetched from the network.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-build" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # the go command's telemetry and env files
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly

(cd "$root/lrmbench3" && go build -o "$build/lrmbench3" .)
exec "$build/lrmbench3" "$@"
