#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the
# repository root:
#
#   bash ffbench/run.sh --workload paper --seed 1 --seconds 10 --trace 0
#
# The Go build cache and every other file the toolchain writes stay
# under .bench_build/ in the current directory; the traced run writes
# its spans and CPU profile under .bench_out/.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

go -C "$root/ffbench" build -o "$build/ffbench" .
# The Go runtime hands freed heap pages back to the OS. With the
# default MADV_DONTNEED, reusing them page-faults, and on a shared VM a
# fault's cost swings with the host (it moved fleet_overload's setup_s
# median by 29% between two ten-run sets). MADV_FREE leaves them mapped
# until the OS needs the memory.
export GODEBUG=madvdontneed=0
exec "$build/ffbench" "$@"
