#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it.
# Run from the root of the checkout:
#
#   bash e2ebench/run.sh --workload place-mem --seed 1 --seconds 10 --trace 0
#
# Build output, the Go build cache and run-time data directories all stay
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/go-tmp"

export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/go-tmp" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=

(cd "$(dirname "$0")" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" --out "$build/e2ebench-run" "$@"
