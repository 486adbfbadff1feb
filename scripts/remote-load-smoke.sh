#!/bin/sh
# Remote load smoke test: boot a single-tenant ppgnn-lsp on the default
# dataset and run the load gate against it (`ppgnn-experiments -gate load
# -addr`) for a short open-loop window: one clean pass and one under
# seeded client-side faults, held to the gate's SLOs. Every decrypted
# answer is checked against a local plaintext engine over the same
# dataset; the gate exits nonzero on any oracle mismatch, SLO violation
# or abandoned session.
set -eu

workdir=$(mktemp -d)
lsp_pid=
trap 'kill "$lsp_pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/ppgnn-lsp" ./cmd/ppgnn-lsp
go build -o "$workdir/ppgnn-experiments" ./cmd/ppgnn-experiments

"$workdir/ppgnn-lsp" -addr 127.0.0.1:19062 -quiet 2>"$workdir/lsp.log" &
lsp_pid=$!

# The daemon logs "serving on" once its listener is bound.
i=0
until grep -q 'serving on' "$workdir/lsp.log"; do
    i=$((i + 1))
    [ "$i" -gt 50 ] && { cat "$workdir/lsp.log" >&2; echo "ppgnn-lsp never started serving" >&2; exit 1; }
    sleep 0.2
done

"$workdir/ppgnn-experiments" -gate load -addr 127.0.0.1:19062 -rate 10 -measure 2s \
    -out "$workdir/load.json"
echo "remote-load-smoke: PASS"
