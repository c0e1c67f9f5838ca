#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload corpus-compile --seed 7 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, the
# binary, telemetry) stays under .bench_build/ in the repository.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/cache" "$out/tmp" "$out/config"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOENV=off GOFLAGS=

(cd "$root/bench" && go build -o "$out/bench" .)
# Not exec: the benchmark reads its own start time from /proc to time its
# set-up, and an exec'd process would inherit this shell's start time.
"$out/bench" "$@"
