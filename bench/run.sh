#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout and
# runs it. Everything the Go toolchain writes (build cache included) stays
# inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C "$root/bench" -o "$out/ppgnn-bench" .
exec "$out/ppgnn-bench" "$@"
