#!/usr/bin/env bash
# Launcher named by BENCHMARK.json: builds the benchmark from source
# inside the checkout (build cache included, so nothing is read or
# written outside it) and runs it from the checkout root.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/benchmark/.build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOFLAGS= GOTOOLCHAIN=local GOWORK=off
go build -C benchmark -o "$build/ihtl-benchmark" .
exec "$build/ihtl-benchmark" "$@"
