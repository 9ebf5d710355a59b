#!/usr/bin/env bash
# Builds the FedTrans benchmark from the sources of the enclosing checkout
# and runs it with the given flags, e.g.
#
#   bash fedbench/run.sh --workload paper-cifar --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (Go build cache, binary,
# checkpoints, span dumps) stays under $CARGO_TARGET_DIR, default
# .bench_build, relative to the current directory. Run it from the root of
# the checkout.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"

export GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS= GOPROXY=off GOSUMDB=off
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export FEDBENCH_OUT=$out

go -C "$bench" build -o "$out/fedbench" .
exec "$out/fedbench" "$@"
