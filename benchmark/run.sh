#!/usr/bin/env bash
# The command of BENCHMARK.json: build the benchmark from source inside the
# checkout, then run it from the repository root with the caller's flags.
# The Go build cache, GOPATH and the toolchain's own bookkeeping (telemetry
# counters under $HOME/.config) all go under .bench_build, so that nothing
# outside the checkout is written.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/home"
export HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
unset XDG_CONFIG_HOME XDG_CACHE_HOME GOENV
go build -C "$root/benchmark" -o "$build/benchmark" .
cd "$root"
exec "$build/benchmark" "$@"
