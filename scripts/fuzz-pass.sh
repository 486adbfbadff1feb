#!/usr/bin/env bash
# fuzz-pass.sh — run every fuzz target of the given packages for a short
# burst (FUZZTIME, default 15s each): the CI smoke pass. `go test -fuzz`
# accepts only one target per invocation, so enumerate with -list first.
# With no arguments it covers the default package list below, which lives
# here and nowhere else (`make fuzz` and CI call this bare).
set -euo pipefail
cd "$(dirname "$0")/.."

fuzztime=${FUZZTIME:-15s}
pkgs=("$@")
if [ ${#pkgs[@]} -eq 0 ]; then
  pkgs=(./internal/core ./internal/wire ./internal/modmath ./internal/paillier ./internal/svc ./internal/parallel ./internal/sanitize ./internal/stats ./internal/encode ./internal/gnn)
fi

for pkg in "${pkgs[@]}"; do
  targets=$(go test -list '^Fuzz' "$pkg" | grep '^Fuzz' || true)
  if [ -z "$targets" ]; then
    echo "fuzz-pass: no fuzz targets in $pkg" >&2
    exit 1
  fi
  for t in $targets; do
    echo "=== fuzz $pkg $t ($fuzztime)"
    go test -run '^$' -fuzz "^${t}\$" -fuzztime "$fuzztime" "$pkg"
  done
done
