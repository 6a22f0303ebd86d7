#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash vabperf/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Every build artifact, cache and Go tool
# state lands under .bench_build in that root, so nothing is written
# outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

(cd "$root/vabperf" && go build -o "$out/vabperf" .)
exec "$out/vabperf" "$@"
