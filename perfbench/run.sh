#!/usr/bin/env bash
# Builds the comparenbd benchmark from source and replaces this
# shell with it, so the process the caller started IS the benchmark:
# the daemon runs inside it, and killing it leaves nothing running.
#
#   bash perfbench/run.sh --workload shared-explore --seed 1 --seconds 15 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ at
# the repository root (Go build cache, temp files, scratch state dirs).
set -euo pipefail

bench_dir=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$bench_dir")
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOFLAGS=-mod=readonly GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off

(cd "$bench_dir" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" --workdir "$out/work" --spans-out "$out/spans" "$@"
