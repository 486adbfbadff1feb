package core

import (
	"encoding/binary"
	"fmt"
	"runtime"

	"ppgnn/internal/cost"
	"ppgnn/internal/obs"
)

// Per-query trace plumbing (DESIGN.md §9): FrameTrace marshalling, the
// optional TracedService interface, and the LSP-side trace attributes.
// Everything here degrades to a no-op on an untraced context, so
// tracing never changes protocol behaviour — only what the flight
// recorder retains.

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

// TracedService is the optional extension of Service for
// implementations that can attribute their work to a caller-supplied
// trace: transport clients propagate the id on the wire, LocalService
// annotates the LSP spans directly. Callers type-assert and fall back
// to Process, so Service implementors never need to know about traces.
type TracedService interface {
	Service
	ProcessTraced(tc obs.TraceContext, q *QueryMsg, locs []*LocationMsg) (*AnswerMsg, error)
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
func (l *LSP) annotateTrace(tc obs.TraceContext, q *QueryMsg) {
	if !tc.Traced() {
		return
	}
	tc.Span.SetAttr("workers", obs.CountBucketLabel(l.resolvedWorkers()))
	tc.Span.SetAttr("candidates", obs.CountBucketLabel(q.CandidateCount()))
	// A server-wide mode bit, never a per-query datum: whether this
	// query's homomorphic batches rode the shared coalescer.
	coalesced := "off"
	if l.Coalesce != nil {
		coalesced = "on"
	}
	tc.Span.SetAttr("coalesced", coalesced)
}

// ProcessTraced runs Process and annotates the trace span with the
// LSP-side attributes. The paillier batch work under Process (the
// candidate fan-out and the homomorphic selection) is attributed to the
// same span via its worker-width and candidate-count buckets.
func (l *LSP) ProcessTraced(tc obs.TraceContext, q *QueryMsg, locs []*LocationMsg, meter *cost.Meter) (*AnswerMsg, error) {
	l.annotateTrace(tc, q)
	return l.Process(q, locs, meter)
}

// ProcessTraced implements TracedService for the in-process adapter.
func (s LocalService) ProcessTraced(tc obs.TraceContext, q *QueryMsg, locs []*LocationMsg) (*AnswerMsg, error) {
	return s.LSP.ProcessTraced(tc, q, locs, s.Meter)
}

var _ TracedService = LocalService{}
