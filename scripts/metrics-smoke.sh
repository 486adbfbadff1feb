#!/bin/sh
# Observability smoke test: start ppgnn-lsp in two-tenant config mode
# with -metrics-addr, run one traced remote query (TCP member links)
# against it, and require:
#   - /metrics to serve a JSON snapshot with the build info block, the
#     LSP-side phase histogram, and the server counters;
#   - /traces to serve the query's trace — same trace id as the client's
#     -trace-out file — with a span tree covering every phase, wall time
#     that accounts for the children, and zero attribute keys or values
#     outside the closed catalog;
#   - /traces/slow to serve well-formed (empty is fine) JSON.
set -eu

workdir=$(mktemp -d)
lsp_pid=
trap 'kill "$lsp_pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/ppgnn-lsp" ./cmd/ppgnn-lsp
go build -o "$workdir/ppgnn" ./cmd/ppgnn

cat >"$workdir/cfg.json" <<'CFG'
{
  "tenants": [
    {"id": "alpha", "synthetic": 500, "seed": 7, "max_sessions": 4},
    {"id": "beta", "synthetic": 300, "seed": 9, "max_sessions": 2}
  ],
  "max_in_flight": 8
}
CFG

"$workdir/ppgnn-lsp" -addr 127.0.0.1:19042 -config "$workdir/cfg.json" \
    -metrics-addr 127.0.0.1:19043 -quiet &
lsp_pid=$!

# Wait for the metrics endpoint to come up (the daemon logs it first).
i=0
until curl -sf http://127.0.0.1:19043/metrics >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -gt 50 ] && { echo "metrics endpoint never came up" >&2; exit 1; }
    sleep 0.2
done

# One real group query: coordinator + two members over local TCP links,
# tenant alpha, trace dumped to a file for the id cross-check.
"$workdir/ppgnn" -connect 127.0.0.1:19042 -tenant alpha -quorum-t 2 \
    -members-tcp -keybits 256 -d 6 -delta 12 -k 4 -variant ppgnn -seed 7 \
    -trace-out "$workdir/client-trace.json" 0.2,0.3 0.25,0.35 0.4,0.5 >/dev/null

curl -sf http://127.0.0.1:19043/metrics >"$workdir/snap.json"
curl -sf http://127.0.0.1:19043/traces >"$workdir/traces.json"
curl -sf http://127.0.0.1:19043/traces/slow >"$workdir/slow.json"

SNAP="$workdir/snap.json" TRACES="$workdir/traces.json" \
SLOW="$workdir/slow.json" CLIENT="$workdir/client-trace.json" python3 - <<'PY'
import json
import os
import re

with open(os.environ["SNAP"]) as f:
    snap = json.load(f)
hists = {(h["name"], h["labels"].get("phase", "")) for h in snap["histograms"] if h.get("labels")}
counters = {c["name"]: c["value"] for c in snap["counters"]}

assert ("ppgnn_phase_seconds", "lsp") in hists, f"lsp phase histogram missing: {sorted(hists)}"
assert "transport_server_sessions_total" in counters, f"server session counter missing: {sorted(counters)}"
assert "transport_server_shed_total" in counters, "shed counter missing"
assert "paillier_ops_total" in counters, f"paillier op counter missing: {sorted(counters)}"
assert counters.get("ppgnn_trace_remote_total", 0) >= 1, \
    f"server adopted no remote trace: {counters.get('ppgnn_trace_remote_total')}"

# Build/runtime identity block rides the same document.
build = snap["build"]
assert build["go_version"].startswith("go"), f"bogus go_version: {build}"
assert build["num_cpu"] >= 1 and build["uptime_seconds"] > 0, f"bogus build block: {build}"

# Redaction spot-check from the outside: label values are short enum
# words (the degree enum uses "1"/"2"), never coordinates, hex blobs, or
# session ids. The authoritative check is internal/obs/privacy_test.go.
for section in ("counters", "gauges", "histograms"):
    for m in snap[section]:
        for k, v in (m.get("labels") or {}).items():
            assert re.fullmatch(r"[a-z0-9_]{1,16}", v), f"suspicious label {k}={v!r} on {m['name']}"

# ---- Flight recorder assertions -------------------------------------

# The closed trace-attribute catalog (internal/obs/catalog.go). Any key
# or value outside this grammar fails the smoke test.
ATTR_KEYS = {"tenant", "admission", "cause", "workers", "candidates", "retry_after", "coalesced"}
ENUM = re.compile(r"^[a-z0-9_]{1,16}$")
BUCKET = re.compile(r"^(le|gt)_[0-9]+(ms|s)?$")
PHASES = {"session", "collect", "partition", "query", "lsp", "decrypt"}
SLACK = 0.1  # seconds; matches internal/experiments/traces.go

def check_span(span, path="root"):
    phases = {span["phase"]}
    assert ENUM.fullmatch(span["phase"]), f"{path}: open-ended phase {span['phase']!r}"
    assert ENUM.fullmatch(span["outcome"]), f"{path}: open-ended outcome {span['outcome']!r}"
    child_sum = 0.0
    for i, c in enumerate(span.get("children") or []):
        assert c["duration_seconds"] <= span["duration_seconds"] + SLACK, \
            f"{path}.{i}: child {c['phase']} outlasts parent"
        child_sum += c["duration_seconds"]
        phases |= check_span(c, f"{path}.{c['phase']}")
    assert child_sum <= span["duration_seconds"] + SLACK, \
        f"{path}: children sum {child_sum:.4f}s exceeds span {span['duration_seconds']:.4f}s"
    for k, v in (span.get("attrs") or {}).items():
        assert k in ATTR_KEYS, f"{path}: attribute key {k!r} outside the closed catalog"
        assert ENUM.fullmatch(v) or BUCKET.fullmatch(v), f"{path}: suspicious attr {k}={v!r}"
    return phases

with open(os.environ["CLIENT"]) as f:
    client = json.load(f)
assert len(client["recent"]) == 1, f"client recorded {len(client['recent'])} traces, want 1"
ct = client["recent"][0]
assert re.fullmatch(r"[0-9a-f]{16}", ct["trace_id"]), f"bad trace id {ct['trace_id']!r}"
phases = check_span(ct["root"])
missing = PHASES - phases
assert not missing, f"client trace missing phases {sorted(missing)}; saw {sorted(phases)}"
assert ct["root"]["outcome"] == "ok", f"client trace outcome {ct['root']['outcome']!r}"

with open(os.environ["TRACES"]) as f:
    server = json.load(f)["traces"]
assert server, "server flight recorder is empty after a traced query"
match = [t for t in server if t["trace_id"] == ct["trace_id"]]
assert match, f"client trace {ct['trace_id']} absent from /traces"
st = match[0]
assert st.get("remote"), "server trace not marked remote"
assert st["root"]["phase"] == "session", f"server root phase {st['root']['phase']!r}"
for t in server:
    check_span(t["root"], f"traces[{t['trace_id']}]")
attrs = st["root"].get("attrs") or {}
assert attrs.get("admission") == "ok", f"server admission attr: {attrs}"
assert attrs.get("tenant", "").startswith("t"), f"server tenant slot attr: {attrs}"

with open(os.environ["SLOW"]) as f:
    slow = json.load(f)["traces"]
for t in slow:
    check_span(t["root"], f"slow[{t['trace_id']}]")

print("metrics smoke ok:", len(snap["counters"]), "counters,",
      len(snap["histograms"]), "histograms,", len(server), "traces,",
      "trace", ct["trace_id"], "spans", sorted(phases))
PY
