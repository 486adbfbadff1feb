#!/usr/bin/env bash
# fuzz-pass.sh — run every fuzz target of the given packages for a fixed
# number of executions (`-fuzztime Nx`): the CI smoke pass. A count, not
# a time budget, because on the slower targets the progress line lags
# the work by seconds, so a timed pass runs an unknown number of inputs.
# Each budget below is about 12-15 s of fuzzing on a 2-core x86-64 box
# (Go 1.24); FUZZSCALE=k multiplies every budget for longer local runs.
# `go test -fuzz` accepts only one target per invocation, so enumerate
# with -list first. With no arguments it covers the default package list
# below, which lives here and nowhere else (`make fuzz` and CI call this
# bare). A target without a budget here fails the pass.
set -euo pipefail
cd "$(dirname "$0")/.."

scale=${FUZZSCALE:-1}

# budget prints a target's exec count, sized from its measured rate.
budget() {
  case "$1" in
    FuzzUnmarshalQuery) echo 270000 ;;
    FuzzUnmarshalLocation) echo 250000 ;;
    FuzzUnmarshalAnswer) echo 92000 ;;
    FuzzUnmarshalContribution) echo 280000 ;;
    FuzzUnmarshalPartial) echo 200000 ;;
    FuzzReadFrame) echo 230000 ;;
    FuzzReader) echo 640000 ;;
    FuzzWriterReaderRoundTrip) echo 480000 ;;
    FuzzMultiExp) echo 64000 ;;
    FuzzFixedBase) echo 175000 ;;
    FuzzDecryptCRT) echo 75000 ;;
    FuzzSvcConfig) echo 160000 ;;
    FuzzCoalesceBatch) echo 55000 ;;
    FuzzSanitize) echo 2500 ;;
    FuzzSPRT) echo 195000 ;;
    FuzzDecode) echo 660000 ;;
    FuzzCodecRoundTrip) echo 770000 ;;
    FuzzTangentBound) echo 400000 ;;
    FuzzBulk) echo 18000 ;;
    *) return 1 ;;
  esac
}

pkgs=("$@")
if [ ${#pkgs[@]} -eq 0 ]; then
  pkgs=(./internal/core ./internal/wire ./internal/modmath ./internal/paillier ./internal/svc ./internal/parallel ./internal/sanitize ./internal/stats ./internal/encode ./internal/gnn ./internal/rtree)
fi

for pkg in "${pkgs[@]}"; do
  targets=$(go test -list '^Fuzz' "$pkg" | grep '^Fuzz' || true)
  if [ -z "$targets" ]; then
    echo "fuzz-pass: no fuzz targets in $pkg" >&2
    exit 1
  fi
  for t in $targets; do
    n=$(budget "$t") || { echo "fuzz-pass: no exec budget for $t" >&2; exit 1; }
    n=$((n * scale))
    echo "=== fuzz $pkg $t (${n} execs)"
    go test -run '^$' -fuzz "^${t}\$" -fuzztime "${n}x" "$pkg"
  done
done
