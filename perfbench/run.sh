#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in, then runs it with
# the given arguments (see main.go for the flags). Every build and run
# artifact stays under the build directory inside the checkout:
# $CARGO_TARGET_DIR when set, else .bench_build.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build"

# Keep the go command's cache, config and telemetry inside the checkout,
# and never let it reach for a network toolchain or module proxy.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" -out "$build/perfbench-out" "$@"
