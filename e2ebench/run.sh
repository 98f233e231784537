#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout it is run
# from, then runs it with the given arguments:
#
#   bash e2ebench/run.sh --workload phantom-conv --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Every file the Go toolchain writes
# (build cache, binary, configuration) stays under .bench_build there.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd e2ebench && go build -o "$build/bin/e2ebench" .)
exec "$build/bin/e2ebench" "$@"
