package obs

import (
	"math"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", L("op", "enc"))
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same (name, labels) → same instrument.
	if r.Counter("test_ops_total", L("op", "enc")) != c {
		t.Fatal("re-registration returned a different counter")
	}
	// Different label value → different instrument.
	if r.Counter("test_ops_total", L("op", "dec")) == c {
		t.Fatal("distinct labels returned the same counter")
	}

	g := r.Gauge("test_depth")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestNilInstrumentsAreNoops(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var s *Span
	c.Inc()
	c.Add(1)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	s.AddRetry()
	if d := s.End("ok"); d != 0 {
		t.Fatalf("nil span End = %v, want 0", d)
	}
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil instruments must read as zero")
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", []float64{0.01, 0.1, 1}, L("phase", "collect"))
	for i := 0; i < 90; i++ {
		h.Observe(0.05) // second bucket
	}
	for i := 0; i < 10; i++ {
		h.Observe(5) // overflow
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	if want := 90*0.05 + 10*5.0; math.Abs(h.Sum()-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", h.Sum(), want)
	}
	p50 := h.Quantile(0.5)
	if p50 < 0.01 || p50 > 0.1 {
		t.Fatalf("p50 = %v, want inside (0.01, 0.1]", p50)
	}
	// p95 rank lands in the overflow bucket → clamped to the last bound.
	if p95 := h.Quantile(0.95); p95 != 1 {
		t.Fatalf("p95 = %v, want clamp to 1", p95)
	}
	if h.Quantile(0.999) != 1 {
		t.Fatal("overflow quantiles must clamp to the largest finite bound")
	}

	empty := r.Histogram("test_empty_seconds", nil)
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_total", L("outcome", "ok")).Add(3)
	r.Gauge("test_gauge").Set(9)
	r.Histogram("test_hist_seconds", []float64{1, 10}).Observe(0.5)

	s := r.Snapshot()
	if got := s.Counter("test_total", L("outcome", "ok")); got != 3 {
		t.Fatalf("snapshot counter = %d, want 3", got)
	}
	if got := s.Gauge("test_gauge"); got != 9 {
		t.Fatalf("snapshot gauge = %d, want 9", got)
	}
	h := s.Histogram("test_hist_seconds")
	if h == nil || h.Count != 1 || h.Sum != 0.5 {
		t.Fatalf("snapshot histogram = %+v, want count 1 sum 0.5", h)
	}
	if len(h.Buckets) != 2 || h.Buckets[0].Count != 1 {
		t.Fatalf("buckets = %+v, want first bucket holding the sample", h.Buckets)
	}
	if s.Counter("test_absent") != 0 || s.Histogram("test_absent") != nil {
		t.Fatal("absent metrics must read as zero/nil")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_kind")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("test_kind")
}

func TestBadNamePanics(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"", "Has-Caps", "with space", "0leading", "semi;colon", "x=1"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q must violate the contract", name)
				}
			}()
			r.Counter(name)
		}()
	}
}

// TestRegistryRace hammers one registry from 64 goroutines — counters,
// gauges, histograms, spans and snapshots all interleaved — and
// is meant to run under -race (CI does). The only assertion is "no race,
// no panic, counts land": correctness of individual ops is covered above.
func TestRegistryRace(t *testing.T) {
	r := NewRegistry()
	const goroutines = 64
	const opsEach = 200
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for range goroutines {
		go func() {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				r.Counter("race_total", L("outcome", "ok")).Inc()
				r.Gauge("race_gauge").Add(1)
				r.Histogram("race_seconds", nil, L("phase", "collect")).Observe(float64(i) / 1000)
				sp := r.StartSpan("query")
				if i%3 == 0 {
					sp.AddRetry()
				}
				sp.End("ok")
				if i%25 == 0 {
					_ = r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if v := r.Counter("race_total", L("outcome", "ok")).Value(); v != goroutines*opsEach {
		t.Fatalf("race_total = %d, want %d", v, goroutines*opsEach)
	}
}
