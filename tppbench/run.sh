#!/bin/sh
# Builds the benchmark from source and runs it with the given arguments:
#
#   sh tppbench/run.sh --workload steady-small --seed 1 --seconds 10 --trace 0
#
# Build products, the Go build cache and the go command's own config
# (telemetry counters included) go to .bench_build/ at the repository
# root, so nothing outside the checkout is written. The build needs the
# simulator's sources next to this directory; without them it fails and
# the script exits non-zero.
set -eu
bench=$(cd "$(dirname "$0")" && pwd)
out="$(dirname "$bench")/.bench_build"
mkdir -p "$out/cache" "$out/tmp"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/mod" \
	XDG_CONFIG_HOME="$out/config" \
	GOWORK=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off
(cd "$bench" && go build -o "$out/tppbench" .) >&2
exec "$out/tppbench" "$@"
