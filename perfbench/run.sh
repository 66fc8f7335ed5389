#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload fft64 --seed 1 --seconds 10 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binary, and the traced run's
# span log and CPU profiles.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ not all found)" >&2
	exit 2
fi

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"

# Keep the toolchain's caches and settings inside the checkout and
# forbid toolchain or module downloads.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0 \
	XDG_CONFIG_HOME="$build/config"

(cd perfbench && go build -buildvcs=false -o "$build/perfbench" .)

commit=none
if [[ -d .git ]]; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo none)
fi
exec "$build/perfbench" --commit "$commit" --out "$build/perfbench-out" "$@"
