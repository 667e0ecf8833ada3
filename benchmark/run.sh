#!/bin/bash
# Builds the benchmark from source into the checkout's .bench_build and
# runs it with the arguments given. Everything the Go toolchain writes
# (build cache, telemetry, module cache) is kept inside the checkout.
#
#   bash benchmark/run.sh --workload rpc-small --seed 1 --seconds 12 --trace 0
set -eu
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/home"
export HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go -C benchmark build -o "$build/benchmark" .
exec "$build/benchmark" "$@"
