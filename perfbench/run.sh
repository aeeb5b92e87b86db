#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload fig9-catalog --seed 1 --seconds 20 --trace 0
#
# The benchmark is its own Go module (perfbench/go.mod) that replaces the
# program's module with the checkout (..), so it always measures the
# program as checked out. Every build artifact, and the go command's own
# configuration and telemetry files, stay under .bench_build/ in the
# checkout; nothing is fetched.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-path" "$out/tmp" "$out/config"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
