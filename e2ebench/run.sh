#!/usr/bin/env bash
# Builds the end-to-end serving benchmark and the daemons it drives
# (qensd, qens-region, qens-gateway) from this checkout, then runs it:
#
#   bash e2ebench/run.sh --workload fresh --seed 1 --seconds 24 --trace 0
#
# Every build artifact, the Go build cache included, stays under
# .bench_build/ at the checkout root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
bin="$build/bin"
mkdir -p "$bin" "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

go -C "$root" build -o "$bin/" ./cmd/qensd ./cmd/qens-region ./cmd/qens-gateway
go -C "$root/e2ebench" build -o "$bin/e2ebench" .

cd "$root"
exec "$bin/e2ebench" -bin "$bin" "$@"
