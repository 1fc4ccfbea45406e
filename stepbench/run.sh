#!/usr/bin/env bash
# Builds the whole-step benchmark from source into .bench_build/ at the
# checkout root and runs it there with the given arguments, e.g.
#
#   bash stepbench/run.sh --workload serial --seed 1 --seconds 20 --trace 0
#
# The Go build cache lives under .bench_build/ too, so a build reads and
# writes nothing outside the checkout except the Go toolchain itself.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$here" && go build -o "$out/stepbench" .)
cd "$root"
exec "$out/stepbench" "$@"
