package obs

import (
	"encoding/json"
	"sync"
	"time"
)

// Flight recorder sizing. The ring holds the most recent completed
// traces regardless of how they went; the slow reservoir additionally
// retains traces that were slow or failed, so a burst of healthy
// traffic cannot flush the interesting ones out of memory.
const (
	// DefaultTraceRing is the capacity of the recent-trace ring buffer.
	DefaultTraceRing = 64
	// DefaultSlowReservoir is the capacity of the slow/failed reservoir.
	DefaultSlowReservoir = 32
)

// slowThreshold marks a trace slow when its root span takes at least
// this long. It is a constant of the design (DESIGN.md §9), held in a
// variable only so the reservoir tests can move it.
var slowThreshold = time.Second

// Recorder metric names (registered in catalog.go).
const (
	traceStartedName   = "ppgnn_trace_started_total"
	traceRemoteName    = "ppgnn_trace_remote_total"
	traceCompletedName = "ppgnn_trace_completed_total"
	traceSlowName      = "ppgnn_trace_slow_retained_total"
	traceDumpsName     = "ppgnn_trace_dumps_total"
)

// Recorder is the per-registry flight recorder: it originates traces,
// adopts wire-propagated ones, and retains completed trace trees in two
// bounded stores — a ring of the last DefaultTraceRing traces and a
// reservoir of slow/failed ones. Every query is traced: there is no
// head sampling. All methods are nil-safe, so an untraced configuration
// (a nil registry) pays nothing.
type Recorder struct {
	reg *Registry

	mu   sync.Mutex
	ring []*TraceSnap // most recent completed traces, oldest first
	slow []*TraceSnap // slow/failed traces, oldest first
}

// Recorder returns the registry's flight recorder, creating it on
// first use. Nil-safe: a nil registry has a nil recorder, and a nil
// recorder never traces.
func (r *Registry) Recorder() *Recorder {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.rec == nil {
		r.rec = &Recorder{reg: r}
	}
	return r.rec
}

// Start originates a new trace under a fresh crypto-random id and
// returns its root: a trace-only span that writes no phase rows (see
// Registry.StartTrace for a metered root).
func (rec *Recorder) Start(phase string) *Span {
	if rec == nil {
		return nil
	}
	rec.reg.Counter(traceStartedName).Inc()
	return rec.root(newTraceID(), phase, false)
}

// StartRemote adopts a wire-propagated trace id and returns the
// trace-only root of this end's tree. A zero id returns nil (untraced).
func (rec *Recorder) StartRemote(id TraceID, phase string) *Span {
	if rec == nil || id == 0 {
		return nil
	}
	rec.reg.Counter(traceRemoteName).Inc()
	return rec.root(id, phase, true)
}

func (rec *Recorder) root(id TraceID, phase string, remote bool) *Span {
	now := time.Now()
	s := &Span{
		id:         id,
		phase:      ClampLabel("phase", phase),
		traceStart: now,
		start:      now,
	}
	s.onEnd = func(s *Span) { rec.complete(s, remote) }
	return s
}

// complete freezes the trace tree and files it in the ring (always) and
// the slow reservoir (when slow or failed). Both stores are bounded:
// the oldest entry is evicted to make room.
func (rec *Recorder) complete(root *Span, remote bool) {
	snap := &TraceSnap{TraceID: root.id.String(), Remote: remote, Root: root.snap()}
	rec.reg.Counter(traceCompletedName).Inc()
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.ring = append(rec.ring, snap)
	if over := len(rec.ring) - DefaultTraceRing; over > 0 {
		rec.ring = append(rec.ring[:0], rec.ring[over:]...)
	}
	if snap.Root.Outcome != "ok" || snap.Root.Seconds >= slowThreshold.Seconds() {
		rec.reg.Counter(traceSlowName).Inc()
		rec.slow = append(rec.slow, snap)
		if over := len(rec.slow) - DefaultSlowReservoir; over > 0 {
			rec.slow = append(rec.slow[:0], rec.slow[over:]...)
		}
	}
}

// Snapshot returns the retained recent traces, newest first.
func (rec *Recorder) Snapshot() []*TraceSnap {
	return rec.copyStore(func() []*TraceSnap { return rec.ring })
}

// SlowSnapshot returns the retained slow/failed traces, newest first.
func (rec *Recorder) SlowSnapshot() []*TraceSnap {
	return rec.copyStore(func() []*TraceSnap { return rec.slow })
}

func (rec *Recorder) copyStore(get func() []*TraceSnap) []*TraceSnap {
	if rec == nil {
		return nil
	}
	rec.mu.Lock()
	src := get()
	out := make([]*TraceSnap, len(src))
	for i, s := range src {
		out[len(src)-1-i] = s // newest first
	}
	rec.mu.Unlock()
	return out
}

// TraceDump is the JSON document a dump produces: the trigger reason
// (a code literal, clamped to the metric naming contract so a dynamic
// string cannot ride along) and both retained stores.
type TraceDump struct {
	Reason string       `json:"reason"`
	Recent []*TraceSnap `json:"recent"`
	Slow   []*TraceSnap `json:"slow"`
}

// Dump captures the recorder's full retained state. It is called on
// watchdog trips, rejected reloads, and failed gate SLO checks, so the
// traces surrounding a failure survive the process that caused it.
// Returns nil for a nil recorder.
func (rec *Recorder) Dump(reason string) *TraceDump {
	if rec == nil {
		return nil
	}
	if !ValidName(reason) {
		reason = OtherValue
	}
	rec.reg.Counter(traceDumpsName).Inc()
	return &TraceDump{Reason: reason, Recent: rec.Snapshot(), Slow: rec.SlowSnapshot()}
}

// JSON renders the dump for a sink (stderr, a report file). Nil-safe.
func (d *TraceDump) JSON() []byte {
	if d == nil {
		return nil
	}
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil { // unreachable: the types are marshal-safe
		return []byte(`{"reason":"` + d.Reason + `","error":"marshal failed"}`)
	}
	return b
}
