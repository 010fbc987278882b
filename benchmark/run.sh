#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, e.g.:
#
#   bash benchmark/run.sh --workload coverage --seed 7 --seconds 20 --trace 0
#
# The Go build cache, module path and toolchain state all live under
# .bench_build in the working directory, so a build reads and writes nothing
# outside the checkout.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$build/relaxfault-bench" ./benchmark
exec "$build/relaxfault-bench" "$@"
