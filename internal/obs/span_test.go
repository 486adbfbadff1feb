package obs

import (
	"testing"
	"time"
)

func TestSpanRecordsDurationAndOutcome(t *testing.T) {
	r := NewRegistry()
	sp := r.StartSpan("collect", nil)
	time.Sleep(2 * time.Millisecond)
	sp.AddRetry()
	sp.AddRetry()
	d := sp.End("ok")
	if d < 2*time.Millisecond {
		t.Fatalf("span duration %v < slept 2ms", d)
	}

	s := r.Snapshot()
	h := s.Histogram(phaseSecondsName, L("phase", "collect"), L("outcome", "ok"))
	if h == nil || h.Count != 1 {
		t.Fatalf("phase histogram = %+v, want one sample", h)
	}
	if h.Sum < 0.002 {
		t.Fatalf("phase histogram sum %v < injected 2ms", h.Sum)
	}
	if got := s.Counter(phaseTotalName, L("phase", "collect"), L("outcome", "ok")); got != 1 {
		t.Fatalf("phase total = %d, want 1", got)
	}
	if got := s.Counter(phaseRetriesName, L("phase", "collect")); got != 2 {
		t.Fatalf("phase retries = %d, want 2", got)
	}
}

func TestSpanEndIsIdempotent(t *testing.T) {
	r := NewRegistry()
	sp := r.StartSpan("query", nil)
	sp.End("ok")
	sp.End("error") // must not double-record or relabel
	s := r.Snapshot()
	if got := s.Counter(phaseTotalName, L("phase", "query"), L("outcome", "ok")); got != 1 {
		t.Fatalf("ok total = %d, want 1", got)
	}
	if got := s.Counter(phaseTotalName, L("phase", "query"), L("outcome", "error")); got != 0 {
		t.Fatalf("error total = %d, want 0 after idempotent End", got)
	}
}

func TestSpanClampsOpenEndedStrings(t *testing.T) {
	r := NewRegistry()
	// A hostile/buggy caller passing query data as phase or outcome must
	// land on the closed enum, never mint a new series.
	sp := r.StartSpan("lat=48.85,lon=2.35", nil)
	sp.End("session-8f3a9c21")
	s := r.Snapshot()
	if got := s.Counter(phaseTotalName, L("phase", OtherValue), L("outcome", OtherValue)); got != 1 {
		t.Fatalf("clamped total = %d, want 1", got)
	}
	for _, c := range s.Counters {
		for _, v := range c.Labels {
			if v == "lat=48.85,lon=2.35" || v == "session-8f3a9c21" {
				t.Fatalf("raw label value leaked into %+v", c)
			}
		}
	}
}

// TestSpanEndSplitsMetricsAndTrace pins who writes what: a metered span
// under a traced parent ends into exactly one ppgnn_phase_total row and
// one trace node; a trace-only child ends into a node and no row; a nil
// span is a no-op.
func TestSpanEndSplitsMetricsAndTrace(t *testing.T) {
	r := NewRegistry()
	rec := r.Recorder()
	root := rec.Start("query") // trace-only root
	sp := r.StartSpan("lsp", root)
	sp.AddRetry()
	sp.End("timeout")
	root.Child("decrypt").End("ok")
	root.End("error")

	s := r.Snapshot()
	var rows int64
	for _, c := range s.Counters {
		if c.Name == phaseTotalName {
			rows += c.Value
		}
	}
	if got := s.Counter(phaseTotalName, L("phase", "lsp"), L("outcome", "timeout")); rows != 1 || got != 1 {
		t.Fatalf("phase rows = %d (lsp/timeout %d), want exactly the metered span's one", rows, got)
	}
	if got := s.Counter(phaseRetriesName, L("phase", "lsp")); got != 1 {
		t.Fatalf("lsp retries = %d, want 1", got)
	}
	snaps := rec.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("recorder retained %d traces, want 1", len(snaps))
	}
	kids := snaps[0].Root.Children
	if len(kids) != 2 || kids[0].Phase != "lsp" || kids[0].Outcome != "timeout" || kids[0].Retries != 1 ||
		kids[1].Phase != "decrypt" || kids[1].Outcome != "ok" {
		t.Fatalf("trace children = %+v, want the metered lsp node and the trace-only decrypt node", kids)
	}

	// A nil span — the untraced, unmetered case — does nothing.
	var nilSpan *Span
	nilSpan.AddRetry()
	nilSpan.SetAttr("workers", "le_4")
	if nilSpan.Child("lsp") != nil || nilSpan.ID() != 0 || nilSpan.End("ok") != 0 {
		t.Fatal("nil span must be a no-op")
	}
	if got := len(r.Snapshot().Counters); got != len(s.Counters) {
		t.Fatalf("nil span wrote metrics: %d counters, was %d", got, len(s.Counters))
	}
}
