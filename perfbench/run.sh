#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload <site-record|reproduce|report-loop> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the checkout root. Everything the build and the run write
# stays under .bench_build/ there.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
    GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
    GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
go -C "$root/perfbench" build -o "$build/perfbench-bin" .
exec "$build/perfbench-bin" "$@"
