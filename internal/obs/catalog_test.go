package obs

import "testing"

// countSeries tallies snapshot entries so idempotence checks can compare
// catalog cardinality before and after a second registration pass.
func countSeries(s *Snapshot) int {
	return len(s.Counters) + len(s.Gauges) + len(s.Histograms)
}

// TestCatalogPreRegistersAtZero is the satellite's contract: a fresh
// registry after MustPreRegister snapshots the complete catalog with
// every series at zero — names valid, labels inside their closed enums,
// nothing counted before the corresponding code path has run.
func TestCatalogPreRegistersAtZero(t *testing.T) {
	r := NewRegistry()
	MustPreRegister(r)
	s := r.Snapshot()

	if n := countSeries(s); n == 0 {
		t.Fatal("catalog registered nothing")
	}
	assertPrivacySafe(t, s)

	for _, c := range s.Counters {
		if c.Value != 0 {
			t.Errorf("counter %s%v = %d before first use, want 0", c.Name, c.Labels, c.Value)
		}
	}
	for _, g := range s.Gauges {
		if g.Value != 0 {
			t.Errorf("gauge %s%v = %d before first use, want 0", g.Name, g.Labels, g.Value)
		}
	}
	for _, h := range s.Histograms {
		if h.Count != 0 || h.Sum != 0 {
			t.Errorf("histogram %s%v count=%d sum=%g before first use, want zeros", h.Name, h.Labels, h.Count, h.Sum)
		}
	}
}

// TestCatalogIdempotent pins that registration is get-or-create: a second
// MustPreRegister (or live instrumentation racing the endpoint's own
// pre-registration) must not duplicate or mutate series.
func TestCatalogIdempotent(t *testing.T) {
	r := NewRegistry()
	MustPreRegister(r)
	first := countSeries(r.Snapshot())

	// Live traffic on a catalog series, then a second registration pass.
	r.Counter("transport_retries_total", L("cause", "dial")).Inc()
	MustPreRegister(r)

	s := r.Snapshot()
	if got := countSeries(s); got != first {
		t.Fatalf("series count changed across re-registration: %d -> %d", first, got)
	}
	if got := s.Counter("transport_retries_total", L("cause", "dial")); got != 1 {
		t.Fatalf("re-registration reset a live counter: got %d, want 1", got)
	}
}

// TestCatalogCoversKnownFamilies spot-checks that the single call site
// really covers every subsystem — the two families that used to be
// registered ad hoc in transport.Pool, plus the load harness.
func TestCatalogCoversKnownFamilies(t *testing.T) {
	r := NewRegistry()
	MustPreRegister(r)
	s := r.Snapshot()

	wantCounters := [][2]string{
		{"transport_retries_total", "cause"},
		{"group_dropouts_total", "cause"},
		{"load_sessions_total", "stage"},
		{"load_sessions_total", "outcome"},
		{"load_oracle_total", "verdict"},
	}
	for _, w := range wantCounters {
		found := false
		for _, c := range s.Counters {
			if c.Name == w[0] && c.Labels[w[1]] != "" {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("catalog is missing counter family %s{%s}", w[0], w[1])
		}
	}
	if s.Histogram("load_query_seconds", L("stage", "measure")) == nil {
		t.Error("catalog is missing load_query_seconds{stage=measure}")
	}
	if s.Histogram("load_sched_lag_seconds") == nil {
		t.Error("catalog is missing load_sched_lag_seconds")
	}
}

// TestContractKeysLabelCatalog pins that every key of the privacy
// contract labels at least one catalogued series: a key no metric can
// carry is dead privacy surface, left behind when its last family goes.
func TestContractKeysLabelCatalog(t *testing.T) {
	r := NewRegistry()
	MustPreRegister(r)
	s := r.Snapshot()
	used := map[string]bool{}
	mark := func(labels map[string]string) {
		for k := range labels {
			used[k] = true
		}
	}
	for _, c := range s.Counters {
		mark(c.Labels)
	}
	for _, g := range s.Gauges {
		mark(g.Labels)
	}
	for _, h := range s.Histograms {
		mark(h.Labels)
	}
	for _, k := range LabelKeys() {
		if !used[k] {
			t.Errorf("contract key %q labels no catalogued series", k)
		}
	}
}
