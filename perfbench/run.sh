#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the
# given arguments. Run it from the root of a cormi checkout:
#
#   bash perfbench/run.sh --workload graph-args --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the build's temporary files and the binary all
# go under .bench_build/ in the checkout, so a run writes nowhere else.
# The first run builds the standard library into that cache; later
# runs only relink.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
