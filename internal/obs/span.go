package obs

import (
	"sync"
	"time"
)

// Span metric names. One histogram and two counters describe every phase
// of every query; the closed "phase" and "outcome" enums are the only
// labels, so span telemetry aggregates across sessions by construction —
// there is deliberately no per-session series to correlate.
const (
	phaseSecondsName = "ppgnn_phase_seconds"
	phaseTotalName   = "ppgnn_phase_total"
	phaseRetriesName = "ppgnn_phase_retries_total"
)

// Span is one protocol phase of one query: its wall time, a retry count,
// an outcome, closed-enum attributes and child spans. One span feeds
// both runtime records of the phase:
//
//   - a metered span (StartSpan, StartTrace) writes the ppgnn_phase_*
//     rows when it ends;
//   - a traced span (a Recorder root, or any span under one) is a node
//     of its query's trace tree (DESIGN.md §9), and ending a root hands
//     the frozen tree to the flight recorder.
//
// Trace-only spans (Recorder.Start, Recorder.StartRemote, Child) write
// no phase rows, so a phase observed from both ends of the wire is
// counted once. All methods are nil-safe — a nil span is an untraced,
// unmetered no-op — and safe for concurrent use. After End the span is
// frozen: Child, SetAttr and AddRetry become no-ops, pinning the misuse
// semantics tested in trace_test.go.
type Span struct {
	reg        *Registry // non-nil: End records the phase rows
	id         TraceID   // the trace's wire id; 0 = untraced
	phase      string
	traceStart time.Time
	start      time.Time
	onEnd      func(*Span) // set on roots: hands the tree to the recorder

	mu       sync.Mutex
	outcome  string
	dur      time.Duration
	retries  int64
	attrs    map[string]string
	children []*Span
	ended    bool
}

// StartSpan begins a metered phase span. Under a traced parent the span
// is also the parent's child in the trace tree; under a nil, untraced or
// ended parent it records metrics only. The phase is clamped to the
// closed "phase" enum, so a caller cannot accidentally mint a per-query
// series.
func (r *Registry) StartSpan(phase string, parent *Span) *Span {
	if s := parent.child(phase, r); s != nil {
		return s
	}
	return &Span{reg: r, phase: ClampLabel("phase", phase), start: time.Now()}
}

// StartTrace originates a new trace in r's flight recorder whose root is
// a metered phase span: the whole of a query run by this process.
func (r *Registry) StartTrace(phase string) *Span {
	s := r.Recorder().Start(phase)
	if s != nil {
		s.reg = r
	}
	return s
}

// Child begins a trace-only sub-span: a node of s's trace tree that
// writes no phase rows. Child on a nil, untraced or ended span returns
// nil, which is itself a safe no-op span.
func (s *Span) Child(phase string) *Span { return s.child(phase, nil) }

func (s *Span) child(phase string, reg *Registry) *Span {
	if s == nil || s.id == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return nil
	}
	c := &Span{
		reg:        reg,
		id:         s.id,
		phase:      ClampLabel("phase", phase),
		traceStart: s.traceStart,
		start:      time.Now(),
	}
	s.children = append(s.children, c)
	return c
}

// ID returns the trace id the span belongs to: 0 when it is nil or
// untraced. A non-zero id is what a FrameTrace carries on the wire.
func (s *Span) ID() TraceID {
	if s == nil {
		return 0
	}
	return s.id
}

// SetAttr attaches a closed-enum trace attribute; on an untraced span it
// is a no-op. The key must be registered in the trace attribute catalog
// (unregistered keys panic — they are code literals, so that is a bug);
// the value is clamped to the key's enum, so dynamic data degrades to
// "other" instead of leaking.
func (s *Span) SetAttr(key, value string) {
	if s == nil || s.id == 0 {
		return
	}
	value = ClampTraceAttr(key, value)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	if s.attrs == nil {
		s.attrs = make(map[string]string, 4)
	}
	s.attrs[key] = value
}

// AddRetry notes one retried exchange inside the phase.
func (s *Span) AddRetry() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		s.retries++
	}
}

// End stops the span under the given outcome (clamped to the closed
// "outcome" enum) and returns its wall time. A metered span records its
// phase rows; a traced span freezes its node, and a root completes its
// trace. The first End wins; later calls, also concurrent ones, record
// nothing and return the time since start.
func (s *Span) End(outcome string) time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return time.Since(s.start)
	}
	s.ended = true
	s.dur = time.Since(s.start)
	s.outcome = ClampLabel("outcome", outcome)
	d, retries := s.dur, s.retries
	s.mu.Unlock()
	if s.reg != nil {
		ph, out := L("phase", s.phase), L("outcome", s.outcome)
		s.reg.Histogram(phaseSecondsName, TimeBuckets, ph, out).Observe(d.Seconds())
		s.reg.Counter(phaseTotalName, ph, out).Inc()
		if retries > 0 {
			s.reg.Counter(phaseRetriesName, ph).Add(retries)
		}
	}
	if s.onEnd != nil {
		s.onEnd(s)
	}
	return d
}

// snap freezes the subtree rooted at s. Un-ended descendants are
// reported with outcome "other" and their duration so far — a trace
// completed while a stray child is still open must not block or lie.
func (s *Span) snap() *SpanSnap {
	s.mu.Lock()
	defer s.mu.Unlock()
	dur, outcome := s.dur, s.outcome
	if !s.ended {
		dur, outcome = time.Since(s.start), OtherValue
	}
	ss := &SpanSnap{
		Phase:         s.phase,
		Outcome:       outcome,
		OffsetSeconds: s.start.Sub(s.traceStart).Seconds(),
		Seconds:       dur.Seconds(),
		Retries:       s.retries,
	}
	if len(s.attrs) > 0 {
		ss.Attrs = make(map[string]string, len(s.attrs))
		for k, v := range s.attrs {
			ss.Attrs[k] = v
		}
	}
	for _, c := range s.children {
		ss.Children = append(ss.Children, c.snap())
	}
	return ss
}
