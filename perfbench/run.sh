#!/usr/bin/env bash
# Builds the serving benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload reach-hot --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare old.jsonl new.jsonl
#
# Build outputs (binary, Go build cache) stay under .bench_build/ in the
# checkout, so the benchmark writes nothing outside it.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local XDG_CONFIG_HOME="$build/config"
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
