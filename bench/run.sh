#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
#
#   bash bench/run.sh --workload suites --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build at the
# repository root: the Go build cache, the temporary build directory,
# the benchmark binary and, for traced runs, the span file.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=

(cd "$root/bench" && go build -o "$out/xbench" .)
cd "$root"
exec "$out/xbench" -repo "$root" -out "$out" "$@"
