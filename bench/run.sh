#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source and
# runs it with the arguments given. Everything the build writes — binary, Go
# build cache, module cache, toolchain telemetry — stays under .bench_build in
# the checkout, so a run touches nothing outside it. A cached build is a
# fraction of a second; the first one compiles the standard library too.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
env GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOFLAGS= \
	go build -C bench -o "$build/walkbench" .
exec "$build/walkbench" "$@"
