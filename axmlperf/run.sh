#!/usr/bin/env bash
# Builds the axmlperf benchmark from this checkout and runs it with the
# given arguments, e.g.
#
#   bash axmlperf/run.sh --workload repo-query --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write — Go build cache, binary, scratch repository directories — goes
# under .bench_build/ in the current directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$here" && go build -o "$out/axmlperf" .)
exec "$out/axmlperf" --workdir "$out" "$@"
