#!/usr/bin/env bash
# Builds the benchmark's daemons and driver from source, then runs the
# driver with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload ingest-durable --seed 1 --seconds 12 --trace 0
#
# The build cache, the binaries and every file a run writes stay under
# .bench_build in the current directory.
set -euo pipefail

out="$(pwd)/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
# The go command keeps telemetry counters under the user config
# directory and defaults GOPATH to the home directory; keep both here.
export XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
mkdir -p "$out/bin" "$out/tmp"

go build -o "$out/bin/landscaped" ./cmd/landscaped
go -C bench build -o "$out/bin/" . ./synthd
exec "$out/bin/bench" "$@"
