#!/usr/bin/env bash
# Builds psgl-server and the benchmark from the checkout in the current
# directory into .bench_build, then runs one workload:
#
#   bash perfbench/run.sh --workload list-skew --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the repository. Every file the build and the run
# write stays under .bench_build, the Go build cache included.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/bin/psgl-server" ./cmd/psgl-server
go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" -server "$out/bin/psgl-server" -out "$out" "$@"
