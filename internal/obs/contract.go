package obs

import (
	"context"
	"errors"
	"io"
	"net"
	"os"
	"strconv"
	"time"
)

// This file is the privacy contract's single source of truth: the closed
// set of label keys the registry accepts, and for each key the closed
// enum of values. Instrumentation anywhere in the stack can only attach
// labels that pass ClampLabel, so a metric label can never carry a
// coordinate, a ciphertext, a session id, or any other per-query datum —
// the worst an out-of-enum value becomes is the literal "other".
// TestPrivacyContract in privacy_test.go walks a live registry against
// these tables; DESIGN.md §9 documents the catalog.

// OtherValue replaces any label value outside its key's enum.
const OtherValue = "other"

// labelEnums maps each allowed label key to its closed value enum.
// Adding a key or value here is a reviewed code change — exactly the
// point: telemetry vocabulary grows by diff, never at runtime.
var labelEnums = map[string]map[string]bool{
	// phase: the protocol phases of Algorithm 1 as observed at runtime
	// (DESIGN.md §9 span taxonomy), plus "session" for the whole query.
	"phase": enum(
		"session",   // one full group query, end to end
		"collect",   // contribution collection (may span re-partitions)
		"partition", // partition-parameter solve for the current roster
		"query",     // encrypted query build + LSP round trip
		"lsp",       // server-side LSP evaluation (Algorithm 2)
		"decrypt",   // answer decryption (joint in threshold mode)
	),
	// outcome: how a phase or session ended. "exhausted" is a session
	// the transport gave up on after its retry budget (every attempt
	// failed transiently); "mismatch" is a load-harness session whose
	// decrypted answer disagreed with the plaintext oracle.
	"outcome": enum(
		"ok", "error", "timeout", "canceled",
		"quorum_lost", "bad_contribution", "remote", "panic", "drain", "busy",
		"exhausted", "mismatch",
	),
	// cause: why a retry, dropout, or shed happened.
	"cause": enum(
		"dial", "reset", "timeout", "eof", "busy", "draining",
		"equivocation", "bad_contribution", "quorum_lost",
		"canceled", "panic", "remote", OtherValue,
	),
	// op: paillier operation names.
	"op": enum(
		"enc", "dec", "add", "mul_plain", "dot", "mat_select",
		"rerandomize", "partial_dec", "combine",
	),
	// path: which decryption implementation ran.
	"path": enum("crt", "threshold"),
	// source: where encryption randomness came from.
	"source": enum("pool", "online"),
	// degree: paillier ciphertext degree ε_s; the protocol uses 1 and 2.
	"degree": enum("1", "2", OtherValue),
	// dir: frame direction relative to the instrumented endpoint.
	"dir": enum("rx", "tx"),
	// kind: which round family a group-session round belongs to.
	"kind": enum("collect", "decrypt"),
	// table: which modmath precomputed-table family was built (§11):
	// per-call Straus odd-power tables vs long-lived fixed-base tables.
	"table": enum("window", "fixed_base"),
	// result: whether an encrypted-constant cache lookup or a fixed-base
	// exponentiation hit, and whether a svc config reload was applied or
	// rejected.
	"result": enum("hit", "miss", "applied", "rejected"),
	// stage: which phase of an open-loop load run an arrival belongs
	// to (internal/load, DESIGN.md §12). Completions are attributed to
	// the stage their arrival fired in, so a query arriving in
	// "measure" and finishing during "drain" still counts as measured.
	"stage": enum("warmup", "measure", "drain"),
	// verdict: the conformance check of one load-harness answer
	// against the plaintext gnn oracle.
	"verdict": enum("match", "mismatch"),
	// tenant: the slot of the tenant a svc-layer session was routed to,
	// NOT its name. Slots are assigned by config order among the
	// non-default tenants ("t0".."t7"); tenants past the eighth clamp to
	// "other". Tenant names are operator-chosen strings and may carry
	// organizational information, so they never reach a metric.
	"tenant": enum(
		"default", "t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7",
	),
	// admission: how the svc admission gate disposed of a session:
	// admitted, shed by the tenant's session quota, shed by the adaptive
	// overload gate, or rejected because the tenant does not exist.
	"admission": enum("ok", "quota", "overload", "unknown"),
	// trigger: why the cross-session coalescer flushed a micro-batch
	// (DESIGN.md §15): the pending task count hit the size bound, the
	// oldest submission hit the flush deadline, or the coalescer was
	// closing and drained what it had.
	"trigger": enum("size", "deadline", "close"),
}

func enum(vs ...string) map[string]bool {
	m := make(map[string]bool, len(vs))
	for _, v := range vs {
		m[v] = true
	}
	return m
}

// traceAttrEnums is the closed catalog of trace-span attributes — the
// trace-tree analogue of labelEnums. Reused keys (tenant, admission,
// cause) share the metric enums; numeric facts enter only as bucket
// labels ("le_128", "gt_2s"), never as raw numbers, so a candidate
// count or retry-after hint is coarsened the same way its histogram
// is. SetAttr clamps values against this table and panics on
// unregistered keys; TestTracePrivacyContract proves the clamping on
// live trace JSON.
var traceAttrEnums = map[string]map[string]bool{
	"tenant":      labelEnums["tenant"],
	"admission":   labelEnums["admission"],
	"cause":       labelEnums["cause"],
	"workers":     enum(countBucketLabels()...),
	"candidates":  enum(countBucketLabels()...),
	"retry_after": enum(durationBucketLabels()...),
	// coalesced: whether the query's homomorphic batches were routed
	// through the cross-session coalescer (DESIGN.md §15). A boolean
	// mode bit, never a per-query datum.
	"coalesced": enum("on", "off"),
}

// retryAfterEdges are the bucket edges for the retry_after attribute.
// svc clamps its hint to [10ms, 2s], so the edges bracket that range.
var retryAfterEdges = []time.Duration{
	10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
	time.Second, 2 * time.Second,
}

func countBucketLabels() []string {
	out := make([]string, 0, len(CountBuckets)+1)
	for _, b := range CountBuckets {
		out = append(out, "le_"+strconv.FormatInt(int64(b), 10))
	}
	return append(out, "gt_"+strconv.FormatInt(int64(CountBuckets[len(CountBuckets)-1]), 10))
}

func durationBucketLabels() []string {
	out := make([]string, 0, len(retryAfterEdges)+1)
	for _, e := range retryAfterEdges {
		out = append(out, "le_"+durationEdgeLabel(e))
	}
	return append(out, "gt_"+durationEdgeLabel(retryAfterEdges[len(retryAfterEdges)-1]))
}

func durationEdgeLabel(d time.Duration) string {
	if d < time.Second {
		return strconv.FormatInt(d.Milliseconds(), 10) + "ms"
	}
	return strconv.FormatInt(int64(d/time.Second), 10) + "s"
}

// CountBucketLabel coarsens an item count (worker width, candidate-set
// size) into its closed bucket label, the only form in which counts may
// enter a trace.
func CountBucketLabel(n int) string {
	for _, b := range CountBuckets {
		if float64(n) <= b {
			return "le_" + strconv.FormatInt(int64(b), 10)
		}
	}
	return "gt_" + strconv.FormatInt(int64(CountBuckets[len(CountBuckets)-1]), 10)
}

// DurationBucketLabel coarsens a duration (the svc retry-after hint)
// into its closed bucket label.
func DurationBucketLabel(d time.Duration) string {
	for _, e := range retryAfterEdges {
		if d <= e {
			return "le_" + durationEdgeLabel(e)
		}
	}
	return "gt_" + durationEdgeLabel(retryAfterEdges[len(retryAfterEdges)-1])
}

// ClampTraceAttr forces a trace attribute value into its key's closed
// enum; unregistered keys panic, exactly like ClampLabel.
func ClampTraceAttr(key, value string) string {
	vals, ok := traceAttrEnums[key]
	if !ok {
		panic("obs: trace attribute key " + key + " is not in the privacy contract")
	}
	if vals[value] {
		return value
	}
	return OtherValue
}

// TraceAttrKeys returns the allowed trace attribute keys (for the
// contract test and the smoke script's closed-catalog assertion).
func TraceAttrKeys() []string {
	out := make([]string, 0, len(traceAttrEnums))
	for k := range traceAttrEnums {
		out = append(out, k)
	}
	return out
}

// AllowedTraceAttr reports whether value is in key's trace attribute
// enum (OtherValue is implicitly in every enum).
func AllowedTraceAttr(key, value string) bool {
	vals, ok := traceAttrEnums[key]
	return ok && (vals[value] || value == OtherValue)
}

// ClampLabel forces a label value into its key's closed enum: in-enum
// values pass through, anything else becomes OtherValue. An unregistered
// key panics — keys are code literals, so that is a bug, not data.
func ClampLabel(key, value string) string {
	vals, ok := labelEnums[key]
	if !ok {
		panic("obs: label key " + key + " is not in the privacy contract")
	}
	if vals[value] {
		return value
	}
	return OtherValue
}

// LabelKeys returns the allowed label keys (for the contract test).
func LabelKeys() []string {
	out := make([]string, 0, len(labelEnums))
	for k := range labelEnums {
		out = append(out, k)
	}
	return out
}

// AllowedValues reports whether value is in key's enum (for the contract
// test; unknown keys are simply not allowed). OtherValue is implicitly in
// every enum — it is what ClampLabel degrades unknown values to.
func AllowedValues(key, value string) bool {
	vals, ok := labelEnums[key]
	return ok && (vals[value] || value == OtherValue)
}

// Cause classifies an error into the closed "cause" enum using only
// stdlib error taxonomy. core.Cause maps core's typed errors
// (RemoteError, QuorumError, ContributionError) and falls back to this
// for plain network errors. Cause never returns the error text: the
// enum is the entire vocabulary.
func Cause(err error) string {
	switch {
	case err == nil:
		return OtherValue
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, os.ErrDeadlineExceeded):
		return "timeout"
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF):
		return "eof"
	case errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrClosedPipe):
		return "reset"
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return "timeout"
	}
	var oe *net.OpError
	if errors.As(err, &oe) {
		if oe.Op == "dial" {
			return "dial"
		}
		return "reset"
	}
	return OtherValue
}

// Outcome maps an error to the closed "outcome" enum: nil is "ok",
// deadline and cancellation are distinguished, everything else is
// "error". core.Outcome refines this with core's typed errors.
func Outcome(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, os.ErrDeadlineExceeded):
		return "timeout"
	case errors.Is(err, context.Canceled):
		return "canceled"
	default:
		return "error"
	}
}
