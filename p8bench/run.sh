#!/usr/bin/env bash
# Builds the p8bench benchmark from the checkout's own sources and runs one
# workload. Run it from the repository root:
#
#   bash p8bench/run.sh --workload suite-quick --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout (Go build cache, GOPATH, Go's config and telemetry
# directory, temporary build files, the binary, the run's scratch
# directories and span dumps). Without the repository's
# sources next to p8bench/ the build fails and the script exits non-zero
# without printing a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=

bin="$build/p8bench-$$"
trap 'rm -f "$bin"' EXIT
(cd "$root/p8bench" && go build -o "$bin" .)
"$bin" "$@"
