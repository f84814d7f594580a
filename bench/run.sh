#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout root
# and runs it with the given arguments. Everything the Go toolchain and the
# benchmark write (build cache, temp files, traces) stays under that
# directory, so a run touches nothing outside its checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gomod" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$build/bench" ./cmd/bench
exec "$build/bench" "$@"
