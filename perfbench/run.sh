#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given,
# from the root of a checkout:
#
#   bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 10 --trace 0
#
# Every build output (binary, Go build cache, temporary files) goes under
# .bench_build in the checkout, and nothing is fetched: the module has no
# dependency outside the repository.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
