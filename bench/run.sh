#!/usr/bin/env bash
# Builds metnode and the bench from the checkout's source into
# .bench_build/ (build time is outside every timer) and runs the bench
# from the checkout root. Everything go writes stays inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off GOENV=off
go build -o "$build/bin/metnode" ./cmd/metnode
go -C bench build -o "$build/bin/bench" .
exec "$build/bin/bench" -node-bin "$build/bin/metnode" "$@"
