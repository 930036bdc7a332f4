#!/usr/bin/env bash
# Builds the program under test (cmd/gatewayd) and the benchmark into
# .bench_build/ at the repository root and runs the benchmark from there.
# Go's caches and its telemetry files are kept in .bench_build/ too, so
# nothing is written outside the checkout; the first build in a fresh
# checkout therefore compiles the standard library as well (about half a
# minute on 2 cores).
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ] || [ ! -d cmd/gatewayd ]; then
	echo "benchmark: no go.mod and cmd/gatewayd here: run from a checkout that holds the program" >&2
	exit 1
fi
build=$PWD/.bench_build
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off XDG_CONFIG_HOME=$build/config
# With telemetry in its default mode the go command detaches a child of
# itself (the counter uploader) that outlives the build; every process
# this script starts must have ended when it returns.
echo off >"$build/config/go/telemetry/mode"
go build -o "$build/gatewayd" ./cmd/gatewayd
(cd benchmark && go build -o "$build/benchmark" .)
exec "$build/benchmark" --gatewayd "$build/gatewayd" "$@"
