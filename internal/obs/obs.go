// Package obs is the observability layer of the PPGNN stack: a
// concurrency-safe metrics registry (atomic counters, gauges, and
// fixed-bucket histograms), span-style phase tracing for the protocol
// phases of Algorithm 1, and an HTTP introspection endpoint serving JSON
// snapshots plus net/http/pprof. Standard library only, like the rest of
// the repository.
//
// Privacy contract (DESIGN.md §9): every metric name is a code literal
// validated against a closed charset, every label key must be
// pre-registered in contract.go, and every label value is clamped to that
// key's closed enum — an unknown value is replaced by "other" before it
// ever reaches the registry. Counters carry only aggregate integers. By
// construction no metric can transport a coordinate, a ciphertext, or a
// session id; TestPrivacyContract walks the live registry to prove it.
//
// The package-global Default registry is what the -metrics-addr endpoint
// of cmd/ppgnn and cmd/ppgnn-lsp serves. Instrumented structs
// (transport.Pool, transport.Server, group.Config) accept an optional
// *Registry and fall back to Default, so tests can observe an isolated
// registry while production processes aggregate everything in one place.
package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension. Keys are code literals registered in
// contract.go; values are clamped to the key's closed enum.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// nameRE is the closed charset for metric names: lowercase snake_case,
// nothing that could smuggle a payload.
var nameRE = regexp.MustCompile(`^[a-z][a-z0-9_]{0,119}$`)

// ValidName reports whether a metric name satisfies the naming contract.
// It is the single source of truth for the charset — the privacy test and
// the catalog test both call it instead of compiling their own regex.
func ValidName(name string) bool { return nameRE.MatchString(name) }

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (negative n is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic integer gauge (pool depths, in-flight sessions).
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by delta (either sign).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current gauge reading.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram: bounds are the inclusive upper
// edges of each bucket, with an implicit +Inf overflow bucket. Counts,
// total count, and sum are all atomics, so Observe is lock-free.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1, last is +Inf overflow
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

// TimeBuckets is the default bucket layout for durations in seconds:
// 0.5ms up to 60s, roughly log-spaced. It covers everything from one
// in-process paillier op to a full soak-scale group session.
var TimeBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// SizeBuckets is the default bucket layout for byte sizes: 64B..16MiB.
var SizeBuckets = []float64{
	64, 256, 1024, 4096, 16384, 65536, 262144, 1 << 20, 4 << 20, 16 << 20,
}

// CountBuckets is the default bucket layout for item counts (batch sizes,
// candidate-set widths): 1..16384, log-spaced. δ' rarely exceeds a few
// hundred; the headroom covers experiment sweeps.
var CountBuckets = []float64{
	1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384,
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Quantile estimates the p-quantile (0 < p < 1) from the bucket counts by
// linear interpolation inside the winning bucket. Samples in the overflow
// bucket report the largest finite bound — quantiles never extrapolate
// past the layout.
func (h *Histogram) Quantile(p float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := p * float64(total)
	cum := int64(0)
	for i := range h.buckets {
		bc := h.buckets[i].Load()
		if bc == 0 {
			cum += bc
			continue
		}
		if float64(cum+bc) >= rank {
			if i == len(h.bounds) { // overflow bucket
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (rank - float64(cum)) / float64(bc)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lo + frac*(hi-lo)
		}
		cum += bc
	}
	return h.bounds[len(h.bounds)-1]
}

// metricKind distinguishes the three metric families inside the registry.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// metric is one registered (name, labels) instrument.
type metric struct {
	name   string
	labels []Label // sorted by key
	kind   metricKind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry holds the registered metrics of one process (or one test). The
// zero value is NOT ready; use NewRegistry. All methods are safe for
// concurrent use; the instruments they return are lock-free.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]*metric
	rec     *Recorder // lazily created flight recorder (Recorder())
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-global registry: the one cmd/ppgnn-lsp and
// cmd/ppgnn serve on -metrics-addr and the fallback of every instrumented
// struct whose Obs field is nil.
func Default() *Registry { return defaultRegistry }

// key builds the canonical identity of a metric; labels must be sorted.
func key(name string, labels []Label) string {
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte('|')
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// normalize validates the metric name and clamps the labels to the
// privacy contract: unknown label keys panic (they are code literals — a
// bad one is a bug the contract test catches), out-of-enum label values
// are replaced by "other" so dynamic data can never leak into a label.
func normalize(name string, labels []Label) []Label {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("obs: metric name %q violates the naming contract", name))
	}
	out := make([]Label, len(labels))
	for i, l := range labels {
		out[i] = Label{Key: l.Key, Value: ClampLabel(l.Key, l.Value)}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	for i := 1; i < len(out); i++ {
		if out[i].Key == out[i-1].Key {
			panic(fmt.Sprintf("obs: metric %q repeats label key %q", name, out[i].Key))
		}
	}
	return out
}

// lookup returns the metric for (name, labels), creating it with mk on
// first use. Kind mismatches panic: one name is one family.
func (r *Registry) lookup(name string, labels []Label, kind metricKind, mk func() *metric) *metric {
	labels = normalize(name, labels)
	k := key(name, labels)
	r.mu.RLock()
	m := r.metrics[k]
	r.mu.RUnlock()
	if m == nil {
		r.mu.Lock()
		m = r.metrics[k]
		if m == nil {
			m = mk()
			m.name, m.labels, m.kind = name, labels, kind
			r.metrics[k] = m
		}
		r.mu.Unlock()
	}
	if m.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as a different kind", name))
	}
	return m
}

// Counter returns (creating on first use) the counter for (name, labels).
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return r.lookup(name, labels, kindCounter, func() *metric {
		return &metric{counter: &Counter{}}
	}).counter
}

// Gauge returns (creating on first use) the gauge for (name, labels).
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	return r.lookup(name, labels, kindGauge, func() *metric {
		return &metric{gauge: &Gauge{}}
	}).gauge
}

// Histogram returns (creating on first use) the histogram for (name,
// labels) with the given bucket bounds (nil = TimeBuckets). Bounds are
// fixed at first registration; later calls reuse the existing layout.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	return r.lookup(name, labels, kindHistogram, func() *metric {
		if len(bounds) == 0 {
			bounds = TimeBuckets
		}
		bs := append([]float64(nil), bounds...)
		sort.Float64s(bs)
		return &metric{hist: &Histogram{
			bounds:  bs,
			buckets: make([]atomic.Int64, len(bs)+1),
		}}
	}).hist
}

// BucketSnap is one histogram bucket in a snapshot: the count of samples
// at or below the upper edge (non-cumulative).
type BucketSnap struct {
	LE    float64 `json:"le"` // +Inf encoded as 0 with Overflow=true
	Count int64   `json:"count"`
}

// CounterSnap is a frozen counter.
type CounterSnap struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  int64             `json:"value"`
}

// GaugeSnap is a frozen gauge.
type GaugeSnap struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  int64             `json:"value"`
}

// HistSnap is a frozen histogram with precomputed quantiles, so a raw
// curl of the endpoint already answers "where is the p95".
type HistSnap struct {
	Name     string            `json:"name"`
	Labels   map[string]string `json:"labels,omitempty"`
	Count    int64             `json:"count"`
	Sum      float64           `json:"sum"`
	P50      float64           `json:"p50"`
	P95      float64           `json:"p95"`
	P99      float64           `json:"p99"`
	Buckets  []BucketSnap      `json:"buckets"`
	Overflow int64             `json:"overflow"` // samples above the last bound
}

// Snapshot is the frozen state of a registry, ready for JSON encoding.
// Entries are sorted by name then labels, so output is deterministic.
type Snapshot struct {
	Counters   []CounterSnap `json:"counters"`
	Gauges     []GaugeSnap   `json:"gauges"`
	Histograms []HistSnap    `json:"histograms"`
}

// labelMap converts sorted labels for JSON.
func labelMap(labels []Label) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	m := make(map[string]string, len(labels))
	for _, l := range labels {
		m[l.Key] = l.Value
	}
	return m
}

// Snapshot freezes the registry. Individual instruments are read with
// atomic loads; the snapshot is not a single consistent cut across
// metrics, which is fine for monitoring.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.RLock()
	ms := make([]*metric, 0, len(r.metrics))
	keys := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ms = append(ms, r.metrics[k])
	}
	r.mu.RUnlock()

	snap := &Snapshot{}
	for _, m := range ms {
		lm := labelMap(m.labels)
		switch m.kind {
		case kindCounter:
			snap.Counters = append(snap.Counters, CounterSnap{m.name, lm, m.counter.Value()})
		case kindGauge:
			snap.Gauges = append(snap.Gauges, GaugeSnap{m.name, lm, m.gauge.Value()})
		case kindHistogram:
			h := m.hist
			hs := HistSnap{
				Name: m.name, Labels: lm,
				Count: h.Count(), Sum: h.Sum(),
				P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
			}
			for i, b := range h.bounds {
				hs.Buckets = append(hs.Buckets, BucketSnap{LE: b, Count: h.buckets[i].Load()})
			}
			hs.Overflow = h.buckets[len(h.bounds)].Load()
			snap.Histograms = append(snap.Histograms, hs)
		}
	}
	return snap
}

// Counter returns the snapshot value of a counter, or 0 when absent.
// Labels need not be sorted. Test helper-grade convenience.
func (s *Snapshot) Counter(name string, labels ...Label) int64 {
	want := labelMap(normalize(name, labels))
	for _, c := range s.Counters {
		if c.Name == name && mapsEqual(c.Labels, want) {
			return c.Value
		}
	}
	return 0
}

// Gauge returns the snapshot value of a gauge, or 0 when absent.
func (s *Snapshot) Gauge(name string, labels ...Label) int64 {
	want := labelMap(normalize(name, labels))
	for _, g := range s.Gauges {
		if g.Name == name && mapsEqual(g.Labels, want) {
			return g.Value
		}
	}
	return 0
}

// Histogram returns the snapshot of a histogram, or nil when absent.
func (s *Snapshot) Histogram(name string, labels ...Label) *HistSnap {
	want := labelMap(normalize(name, labels))
	for i := range s.Histograms {
		h := &s.Histograms[i]
		if h.Name == name && mapsEqual(h.Labels, want) {
			return h
		}
	}
	return nil
}

func mapsEqual(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
