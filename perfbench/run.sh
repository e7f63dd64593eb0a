#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it from the
# repository root with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload scrape --seed 1 --seconds 4 --trace 0
#
# The Go build cache, the compiler's temporary files and every file a run
# writes stay under .bench_build.
set -euo pipefail
cd "$(dirname "$0")/.."
out=.bench_build
mkdir -p "$out/tmp"
export GOCACHE="$PWD/$out/gocache" GOTMPDIR="$PWD/$out/tmp" GOTOOLCHAIN=local GOFLAGS= GOENV=off
(cd perfbench && go build -o "../$out/perfbench" .)
exec "$out/perfbench" "$@"
