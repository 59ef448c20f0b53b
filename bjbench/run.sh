#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash bjbench/run.sh --workload campaign-full --seed 1 --seconds 10 --trace 0
#
# Run from the root of a checkout. Every file the Go toolchain and the
# benchmark write (build cache, binary, state and cache dirs, traces) lands
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout. A
# checkout without the simulator's sources fails the build and exits non-zero
# without printing a result.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod
export GOWORK=off

(cd "$root/bjbench" && go build -o "$out/bjbench" .) >&2
exec "$out/bjbench" --workdir "$out" "$@"
