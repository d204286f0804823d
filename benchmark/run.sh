#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash benchmark/run.sh --workload zoo-warm --seed 1 --seconds 10 --trace 0
#
# The build and every Go cache stay under .bench_build/ at the checkout
# root; nothing is fetched over the network.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOMODCACHE="$build/go-path/pkg/mod" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
go -C "$root/benchmark" build -o "$build/bin/benchmark" .
exec "$build/bin/benchmark" "$@"
