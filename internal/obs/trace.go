package obs

import (
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
)

// Per-query distributed tracing (DESIGN.md §9). A trace stitches the
// phase spans of one query — session, collect, partition, query, lsp,
// decrypt — into a tree keyed by a crypto-random 64-bit trace id. The
// id is propagated on the wire by an optional FrameTrace frame
// (client → LSP and coordinator → members); an absent frame means the
// query is untraced, so the extension is wire-compatible the same way
// FrameTenant is.
//
// Traces obey the same redaction contract as metrics, but stricter:
// span phases and outcomes are clamped to the existing closed enums,
// and free-form attributes do not exist — SetAttr only accepts keys
// registered in traceAttrEnums (contract.go) and clamps their values,
// so a trace can never carry a location, a ciphertext, a tenant name,
// or any other per-query datum. Numeric facts (worker width, candidate
// count, retry-after hints) enter as closed bucket labels, never as raw
// numbers. privacy_test.go proves this on live trace JSON.

// TraceID is a crypto-random 64-bit trace identifier. Zero means
// "untraced". The id is random, not derived from any query content, so
// it links the spans of one query without identifying the query.
type TraceID uint64

// String formats the id the way it appears in trace JSON.
func (id TraceID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// SpanSnap is one frozen span in trace JSON. Offsets are relative to
// the trace start — traces carry no absolute timestamps, so a retained
// trace cannot be correlated with an external clock to de-anonymize a
// query's arrival time beyond what the recorder's retention already
// implies.
type SpanSnap struct {
	Phase         string            `json:"phase"`
	Outcome       string            `json:"outcome"`
	OffsetSeconds float64           `json:"offset_seconds"`
	Seconds       float64           `json:"duration_seconds"`
	Retries       int64             `json:"retries,omitempty"`
	Attrs         map[string]string `json:"attrs,omitempty"`
	Children      []*SpanSnap       `json:"children,omitempty"`
}

// TraceSnap is one completed trace as served at /traces.
type TraceSnap struct {
	TraceID string    `json:"trace_id"`
	Remote  bool      `json:"remote,omitempty"` // id arrived via FrameTrace
	Root    *SpanSnap `json:"root"`
}

// newTraceID draws a non-zero crypto-random 64-bit id. Randomness
// failures surface as an untraceable id of 0 only if the platform RNG
// is broken beyond use, in which case crypto/rand panics first.
func newTraceID() TraceID {
	var b [8]byte
	for {
		if _, err := crand.Read(b[:]); err != nil {
			panic("obs: crypto/rand failed: " + err.Error())
		}
		if id := TraceID(binary.BigEndian.Uint64(b[:])); id != 0 {
			return id
		}
	}
}
