#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed on to the benchmark:
#
#   bash bench/run.sh --workload csrld-sweep --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache and the toolchain's scratch files all live
# under .bench_build/ in the checkout, so the run writes nothing outside it.
# The first build of a checkout compiles the standard library into that
# cache; later builds are cache hits.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp"
# The go command keeps its env file and telemetry under the user config
# directory; point it into the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/bench" && go build -o "$out/csrl-bench" .)
exec "$out/csrl-bench" "$@"
