#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of this checkout and
# runs it with the arguments given. Every file the toolchain writes (build
# cache, temporary files, the binary) stays inside the checkout; traces and
# WAL data directories go to benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/zht-benchmark" .)
exec "$build/zht-benchmark" -out "$here/out" "$@"
