package core

import (
	"encoding/binary"
	"fmt"
	"runtime"

	"ppgnn/internal/obs"
)

// Per-query trace plumbing (DESIGN.md §9): FrameTrace marshalling and
// the LSP-side trace attributes. Everything here degrades to a no-op on
// an untraced span, so tracing never changes protocol behaviour — only
// what the flight recorder retains.

// traceIDLen is the FrameTrace payload length: one big-endian uint64.
const traceIDLen = 8

// MarshalTraceID encodes a trace id as a FrameTrace payload.
func MarshalTraceID(id obs.TraceID) []byte {
	b := make([]byte, traceIDLen)
	binary.BigEndian.PutUint64(b, uint64(id))
	return b
}

// UnmarshalTraceID decodes a FrameTrace payload. A malformed or zero
// payload is an error: a peer that sends the frame must mean it.
func UnmarshalTraceID(b []byte) (obs.TraceID, error) {
	if len(b) != traceIDLen {
		return 0, fmt.Errorf("core: trace frame payload %d bytes, want %d", len(b), traceIDLen)
	}
	id := obs.TraceID(binary.BigEndian.Uint64(b))
	if id == 0 {
		return 0, fmt.Errorf("core: zero trace id")
	}
	return id, nil
}

// resolvedWorkers maps the Workers knob to the effective pool width
// (the same resolution LSP.pool applies).
func (l *LSP) resolvedWorkers() int {
	switch {
	case l.Workers == 0:
		return 1
	case l.Workers < 0:
		return runtime.GOMAXPROCS(0)
	}
	return l.Workers
}

// annotateTrace attaches the LSP-side closed bucket attributes — worker
// width and candidate count — to the query's trace span.
func (l *LSP) annotateTrace(sp *obs.Span, q *QueryMsg) {
	if sp.ID() == 0 {
		return
	}
	sp.SetAttr("workers", obs.CountBucketLabel(l.resolvedWorkers()))
	sp.SetAttr("candidates", obs.CountBucketLabel(q.CandidateCount()))
	// A server-wide mode bit, never a per-query datum: whether this
	// query's homomorphic batches rode the shared coalescer.
	coalesced := "off"
	if l.Coalesce != nil {
		coalesced = "on"
	}
	sp.SetAttr("coalesced", coalesced)
}
