#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload deepwalk-outcache --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write (Go build cache, binary, cached
# inputs, scratch directories) stays under $CARGO_TARGET_DIR, default
# .bench_build, inside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/gotmp"
# The go command keeps its env file and telemetry counters under the user
# config directory; point that into the build directory too.
export XDG_CONFIG_HOME="$out/config"
mkdir -p "$GOTMPDIR"

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out" "$@"
