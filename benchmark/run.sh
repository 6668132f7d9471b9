#!/usr/bin/env bash
# Builds the fatgather benchmark from the source tree around it and runs it.
# Run from the repository root; every argument goes to the benchmark:
#
#   bash benchmark/run.sh --workload sweep-small-n --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache and the scratch sweep stores all live under
# $CARGO_TARGET_DIR (default .bench_build) in the current directory, so a run
# writes nothing outside it.
set -euo pipefail

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)

export GOCACHE="$out/go-build" GOMODCACHE="$out/go-mod" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$bench_dir" && go build -o "$out/fatgather-bench" .)
exec "$out/fatgather-bench" --workdir "$out/work" "$@"
