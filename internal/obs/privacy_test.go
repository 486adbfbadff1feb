package obs

import (
	"encoding/json"
	"regexp"
	"strings"
	"testing"
)

// walkSnapshot applies fn to every (name, labels) pair in a snapshot.
func walkSnapshot(s *Snapshot, fn func(name string, labels map[string]string)) {
	for _, c := range s.Counters {
		fn(c.Name, c.Labels)
	}
	for _, g := range s.Gauges {
		fn(g.Name, g.Labels)
	}
	for _, h := range s.Histograms {
		fn(h.Name, h.Labels)
	}
}

// assertPrivacySafe is the redaction contract of DESIGN.md §9 as code:
// names match the closed charset, label keys are registered, label values
// sit inside their key's closed enum. Anything dynamic — a coordinate, a
// ciphertext hex string, a session id — fails at least one of the three.
// internal/integration reuses the same walk against the live Default
// registry after a full soak run (TestMetricsEndpointSoak).
func assertPrivacySafe(t *testing.T, s *Snapshot) {
	t.Helper()
	keys := make(map[string]bool)
	for _, k := range LabelKeys() {
		keys[k] = true
	}
	walkSnapshot(s, func(name string, labels map[string]string) {
		if !ValidName(name) {
			t.Errorf("metric name %q violates the naming contract", name)
		}
		for k, v := range labels {
			if !keys[k] {
				t.Errorf("metric %q uses unregistered label key %q", name, k)
				continue
			}
			if !AllowedValues(k, v) {
				t.Errorf("metric %q label %s=%q is outside the closed enum", name, k, v)
			}
		}
	})
}

// TestPrivacyContract exercises the registry the way the whole stack does
// — spans, counters with error-derived causes, histograms — then tries
// actively hostile label values, and proves the resulting snapshot (the
// exact bytes -metrics-addr serves) contains nothing but catalog names
// and closed-enum labels.
func TestPrivacyContract(t *testing.T) {
	r := NewRegistry()

	// Legitimate instrumentation.
	r.Counter("transport_retries_total", L("cause", "dial")).Inc()
	r.Gauge("transport_inflight").Set(3)
	r.Histogram("transport_frame_bytes", SizeBuckets, L("dir", "rx")).Observe(512)
	sp := r.StartSpan("decrypt", nil)
	sp.End("quorum_lost")

	// Hostile label values: coordinates, a ciphertext-looking blob, a
	// session id, an error string with an address in it. All must clamp.
	hostile := []string{
		"48.858844,2.294351",
		"0x8f3aa91bc4",
		"session=11400714819323198485",
		"dial tcp 10.1.2.3:9042: connection refused",
	}
	for _, v := range hostile {
		r.Counter("group_dropouts_total", L("cause", v)).Inc()
		r.Histogram("group_round_seconds", nil, L("kind", v)).Observe(0.1)
	}

	s := r.Snapshot()
	assertPrivacySafe(t, s)

	// The hostile strings must not appear anywhere in the serialized
	// snapshot — not as names, labels, or values.
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range hostile {
		if strings.Contains(string(raw), v) {
			t.Fatalf("hostile value %q leaked into the snapshot", v)
		}
	}
	// And the clamped series exist, so the events were still counted.
	if got := s.Counter("group_dropouts_total", L("cause", OtherValue)); got != int64(len(hostile)) {
		t.Fatalf("clamped dropouts = %d, want %d", got, len(hostile))
	}
}

// TestTracePrivacyContract extends the redaction contract to the flight
// recorder: hostile strings pushed through every trace surface — span
// phases, outcomes, every registered attribute key, the dump reason —
// must clamp to the closed enums, and the serialized trace JSON (the
// exact bytes /traces serves) must not contain a single one of them.
func TestTracePrivacyContract(t *testing.T) {
	r := NewRegistry()
	rec := r.Recorder()

	hostile := []string{
		"48.858844,2.294351",              // a location
		"0x8f3aa91bc4deadbeef",            // a ciphertext fragment
		"acme-corp-prod",                  // a tenant name
		"session=11400714819323198485",    // a session id
		"dial tcp 10.1.2.3:9042: refused", // an error with an address
		"workers=37",                      // a raw number dodging buckets
	}

	tr := rec.Start("session")
	for _, v := range hostile {
		sp := tr.Child(v) // hostile phase
		for _, key := range TraceAttrKeys() {
			sp.SetAttr(key, v) // hostile value under every legal key
		}
		sp.End(v) // hostile outcome
	}
	tr.End("ok")

	snaps := rec.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("retained %d traces, want 1", len(snaps))
	}
	var walk func(s *SpanSnap)
	walk = func(s *SpanSnap) {
		if !AllowedValues("phase", s.Phase) {
			t.Errorf("span phase %q escaped the closed enum", s.Phase)
		}
		if !AllowedValues("outcome", s.Outcome) {
			t.Errorf("span outcome %q escaped the closed enum", s.Outcome)
		}
		for k, v := range s.Attrs {
			if !AllowedTraceAttr(k, v) {
				t.Errorf("span attr %s=%q escaped the closed catalog", k, v)
			}
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(snaps[0].Root)

	raw, err := json.Marshal(rec.Dump("tenant=acme corp")) // hostile reason too
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range hostile {
		if strings.Contains(string(raw), v) {
			t.Fatalf("hostile value %q leaked into trace JSON", v)
		}
	}
	if strings.Contains(string(raw), "acme") {
		t.Fatal("hostile dump reason leaked into trace JSON")
	}
}

// TestUnregisteredTraceAttrKeyPanics pins the same "keys are code
// literals" rule for trace attributes.
func TestUnregisteredTraceAttrKeyPanics(t *testing.T) {
	r := NewRegistry()
	tr := r.Recorder().Start("session")
	defer tr.End("ok")
	defer func() {
		if recover() == nil {
			t.Fatal("unregistered trace attr key must panic")
		}
	}()
	tr.SetAttr("user_location", "0.5,0.5")
}

// TestTraceAttrEnumsAreClosed holds the trace attribute catalog to the
// same no-dynamic-data bar as the label enums. Bucket labels (le_128,
// gt_2s) legitimately carry digits, so they are checked against the
// strict bucket grammar instead of the digit heuristic.
func TestTraceAttrEnumsAreClosed(t *testing.T) {
	bucket := regexp.MustCompile(`^(le|gt)_[0-9]+(ms|s)?$`)
	suspicious := regexp.MustCompile(`[0-9]{3,}|[,:;=/]| `)
	for _, k := range TraceAttrKeys() {
		for v := range traceAttrEnums[k] {
			if bucket.MatchString(v) {
				continue
			}
			if suspicious.MatchString(v) {
				t.Errorf("trace attr enum %s contains suspicious value %q", k, v)
			}
		}
	}
}

// TestUnregisteredLabelKeyPanics pins the "keys are code literals" rule.
func TestUnregisteredLabelKeyPanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("unregistered label key must panic")
		}
	}()
	r.Counter("test_total", L("user_location", "0.5,0.5"))
}

// TestContractEnumsAreClosed spot-checks that the enums hold no value
// that itself looks like dynamic data (digits-heavy, separators).
func TestContractEnumsAreClosed(t *testing.T) {
	suspicious := regexp.MustCompile(`[0-9]{3,}|[,:;=/]| `)
	for _, k := range LabelKeys() {
		for _, v := range enumValues(k) {
			if suspicious.MatchString(v) {
				t.Errorf("enum %s contains suspicious value %q", k, v)
			}
		}
	}
}

func enumValues(key string) []string {
	var out []string
	for v := range labelEnums[key] {
		out = append(out, v)
	}
	return out
}
