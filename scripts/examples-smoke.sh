#!/bin/sh
# Examples smoke test: every runnable example under examples/ must exit 0
# and print something on stdout. Nothing else runs them, so an example
# that stops compiling or starts failing would otherwise go unnoticed.
set -eu

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

ran=0
for dir in examples/*/; do
    name=$(basename "$dir")
    if ! go run "./$dir" >"$workdir/out" 2>"$workdir/err"; then
        echo "example $name failed:" >&2
        cat "$workdir/err" >&2
        exit 1
    fi
    if [ ! -s "$workdir/out" ]; then
        echo "example $name printed nothing on stdout" >&2
        exit 1
    fi
    ran=$((ran + 1))
done
[ "$ran" -gt 0 ] || { echo "no examples found under examples/" >&2; exit 1; }
echo "examples smoke: $ran examples ran"
