#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from any working directory.
# Everything the Go toolchain writes (build cache, temporary files, its own
# configuration) is kept under .bench_build/ and every output under out/, so
# a run touches nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
build="$here/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local
go -C "$here" build -o "$build/benchmark" .
exec "$build/benchmark" -out "$here/out" "$@"
