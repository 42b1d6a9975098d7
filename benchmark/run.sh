#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with the
# given arguments. Run it from the repository root. Everything the build
# and the runs write goes under .bench_build/ in the working directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS="" GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd benchmark && go build -o "$out/cbbench" .)
exec "$out/cbbench" "$@"
