#!/bin/sh
# Service-lifecycle smoke test: boot a two-tenant ppgnn-lsp from a config
# file, probe /healthz and /readyz, run real queries against both tenants,
# push a SIGHUP reload mid-load (then a corrupt one, which must be
# rejected while the old epoch keeps serving), and check the reload
# counters. The seeded chaos soak is `ppgnn-experiments -gate chaos`
# (`make chaos-gate`), whose report check holds the oracle record.
set -eu

workdir=$(mktemp -d)
lsp_pid=
trap 'kill "$lsp_pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/ppgnn-lsp" ./cmd/ppgnn-lsp
go build -o "$workdir/ppgnn" ./cmd/ppgnn

cfg="$workdir/svc.json"
cat >"$cfg" <<'EOF'
{"tenants": [
  {"id": "default", "synthetic": 400, "seed": 3, "max_sessions": 8},
  {"id": "alpha", "synthetic": 400, "seed": 7, "max_sessions": 8}
]}
EOF

"$workdir/ppgnn-lsp" -addr 127.0.0.1:19052 -metrics-addr 127.0.0.1:19053 \
    -config "$cfg" -quiet &
lsp_pid=$!

i=0
until curl -sf http://127.0.0.1:19053/healthz >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -gt 50 ] && { echo "health endpoint never came up" >&2; exit 1; }
    sleep 0.2
done

# Liveness and readiness both green on a freshly applied first epoch.
[ "$(curl -sf http://127.0.0.1:19053/healthz)" = "ok" ]
[ "$(curl -sf http://127.0.0.1:19053/readyz)" = "ready" ]

query() {
    "$workdir/ppgnn" -connect 127.0.0.1:19052 ${1:+-tenant "$1"} \
        -keybits 256 -d 5 -delta 10 -k 4 -variant ppgnn -seed 7 \
        0.2,0.3 0.25,0.35 >/dev/null
}

# Both tenants answer: the default tenant with no tenant frame (wire
# compatibility) and alpha via the tenant frame.
query ""
query alpha

# SIGHUP mid-load: flip alpha's quota, reload, and keep querying across
# the swap. A background query runs while the signal lands.
sed 's/"max_sessions": 8}$/"max_sessions": 6}/' "$cfg" >"$cfg.new" && mv "$cfg.new" "$cfg"
query alpha &
bg=$!
kill -HUP "$lsp_pid"
wait "$bg"

i=0
until [ "$(curl -sf http://127.0.0.1:19053/readyz)" = "ready" ]; do
    i=$((i + 1))
    [ "$i" -gt 50 ] && { echo "service never re-readied after SIGHUP" >&2; exit 1; }
    sleep 0.2
done
query alpha

# A corrupt config must be rejected: the service stays ready on the old
# epoch and still answers.
echo '{"tenants": [{]' >"$cfg"
kill -HUP "$lsp_pid"
sleep 0.5
[ "$(curl -sf http://127.0.0.1:19053/readyz)" = "ready" ]
query alpha

# The reload counters must record exactly what happened: one applied
# (plus the initial epoch, which is not counted), one rejected.
curl -sf http://127.0.0.1:19053/metrics >"$workdir/snap.json"
SNAP="$workdir/snap.json" python3 - <<'PY'
import json, os

with open(os.environ["SNAP"]) as f:
    snap = json.load(f)
reloads = {c["labels"]["result"]: c["value"]
           for c in snap["counters"] if c["name"] == "svc_reloads_total"}
assert reloads.get("applied") == 1, f"applied reloads: {reloads}"
assert reloads.get("rejected") == 1, f"rejected reloads: {reloads}"
ready = [g for g in snap["gauges"] if g["name"] == "svc_ready"]
assert ready and ready[0]["value"] == 1, f"svc_ready: {ready}"
tenants = [g for g in snap["gauges"] if g["name"] == "svc_tenants"]
assert tenants and tenants[0]["value"] == 2, f"svc_tenants: {tenants}"
print("svc smoke ok: reloads", reloads)
PY

kill "$lsp_pid"
wait "$lsp_pid" 2>/dev/null || true
echo "svc-smoke: PASS"
