#!/usr/bin/env bash
# Builds hostbench from source and runs it with the given arguments.
# Run from the repository root, for example:
#
#   bash hostbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the binary, the Go build cache and traced spans.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/hostbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/hostbench" && go build -o "$out/hostbench" .)
exec "$out/hostbench" "$@"
