package main

import (
	"io"
	"math"
	"net"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentilePicker(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose: 100..1
	}
	if got := median(xs); !near(got, 50.5) {
		t.Errorf("median = %v, want 50.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd-count median = %v, want 2", got)
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 = %v, want 90", got)
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
	// 100 samples leave exactly ten beyond p90; 99 do not.
	if _, err := percentileChecked(xs, 90); err != nil {
		t.Errorf("p90 of 100 samples refused: %v", err)
	}
	if _, err := percentileChecked(xs[:99], 90); err == nil {
		t.Error("p90 of 99 samples accepted: fewer than ten samples lie beyond it")
	}
	if _, err := percentileChecked(xs, 99); err == nil {
		t.Error("p99 of 100 samples accepted")
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{16, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {200, 95}, {999, 95}, {1000, 99}} {
		if got := pickTail(c.n); got != c.want {
			t.Errorf("pickTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if !near(q1, 1.5) || !near(q3, 12) {
		t.Errorf("quartiles = %v, %v, want 1.5, 12", q1, q3)
	}
	if got := spread(xs); !near(got, 5.5/5.5) {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestCountingConn(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	w := &wireCounter{}
	ca := countingConn{Conn: a, wire: w}
	go func() {
		buf := make([]byte, 7)
		io.ReadFull(b, buf)
		b.Write([]byte("abc"))
	}()
	if _, err := ca.Write([]byte("1234567")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, err := ca.Read(buf)
	if err != nil || n != 3 {
		t.Fatalf("read %d bytes, err %v", n, err)
	}
	if w.written.Load() != 7 || w.read.Load() != 3 || w.total() != 10 {
		t.Errorf("counted %d written, %d read, total %d; want 7, 3, 10", w.written.Load(), w.read.Load(), w.total())
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	u := time.Millisecond
	spans := []span{
		{ID: 1, Parent: 0, Name: "query", Start: 0, End: 100 * u},
		{ID: 2, Parent: 1, Name: "a.x", Start: 10 * u, End: 30 * u},
		{ID: 3, Parent: 1, Name: "b.y", Start: 40 * u, End: 70 * u},
		{ID: 4, Parent: 3, Name: "c.z", Start: 45 * u, End: 50 * u},
		{ID: 5, Parent: 1, Name: "d.late", Start: 90 * u, End: 120 * u}, // clipped to the parent's end
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 40 * u, 2: 20 * u, 3: 25 * u, 4: 5 * u, 5: 30 * u} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	if layerOf("paillier.select") != "paillier" || layerOf("query") != "query" {
		t.Error("layerOf does not split at the first dot")
	}
}

func TestCoverageIsMedianOfPerQueryShares(t *testing.T) {
	u := time.Millisecond
	var spans []span
	id := 0
	add := func(parent, query int, name string, d time.Duration) int {
		id++
		spans = append(spans, span{ID: id, Parent: parent, Query: query, Name: name, Start: 0, End: d})
		return id
	}
	// Three queries whose layer spans cover 90%, 100% and 200% of the lump.
	for q, children := range map[int]time.Duration{1: 90 * u, 2: 100 * u, 3: 200 * u} {
		add(0, q, "core.lsp_process", 100*u)
		r := add(0, q, "replay.lsp_process", 300*u)
		add(r, q, "gnn.search", children/2)
		add(r, q, "paillier.select", children/2)
		add(0, q, "gnn.search", 50*u) // not under the replay span: ignored
	}
	if got := coverage(spans, "replay.lsp_process", "core.lsp_process"); !near(got, 1.0) {
		t.Errorf("coverage = %v, want the median share 1.0", got)
	}
	if got := coverage(spans, "replay.none", "core.lsp_process"); got != 0 {
		t.Errorf("coverage with no replay spans = %v, want 0", got)
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const service = 20 * time.Millisecond
	// Three arrivals due at once on one worker: the second and third wait
	// behind the first, and that wait must be in their latency.
	ph := runOpenLoop([]time.Duration{0, 0, 0}, 1, func(_ int, due time.Time) sample {
		time.Sleep(service)
		return sample{latency: time.Since(due)}
	})
	if len(ph.samples) != 3 {
		t.Fatalf("%d samples, want 3", len(ph.samples))
	}
	for i, s := range ph.samples {
		if min := time.Duration(i+1) * service; s.latency < min {
			t.Errorf("arrival %d: latency %v, want at least %v (time from its due time, queueing included)", i, s.latency, min)
		}
		if s.lag < 0 {
			t.Errorf("arrival %d: negative generator lag %v", i, s.lag)
		}
	}
	if ph.window < 3*service {
		t.Errorf("window %v ends before the last completion", ph.window)
	}

	// The generator does not wait for a busy worker: with a slow handler
	// every arrival is still handed over close to its due time.
	offsets := []time.Duration{0, 5 * time.Millisecond, 10 * time.Millisecond, 15 * time.Millisecond}
	ph = runOpenLoop(offsets, 2, func(_ int, due time.Time) sample {
		time.Sleep(service)
		return sample{latency: time.Since(due)}
	})
	for _, s := range ph.samples {
		if s.lag > service/2 {
			t.Errorf("generator lag %v: the generator waited for a worker", s.lag)
		}
	}
}

func TestArrivalOffsetsAreSeededAndCountFixed(t *testing.T) {
	a, b, c := arrivalOffsets(20, 10, 7), arrivalOffsets(20, 10, 7), arrivalOffsets(20, 10, 8)
	if len(a) != 200 || len(c) != 200 {
		t.Fatalf("%d and %d arrivals, want 200 for every seed", len(a), len(c))
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different schedule at %d", i)
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("schedule not sorted at %d", i)
		}
		if a[i] < 0 || a[i] >= 10*time.Second {
			t.Fatalf("arrival %d at %v is outside the window", i, a[i])
		}
		same = same && a[i] == c[i]
	}
	if same {
		t.Error("different seeds gave the same schedule")
	}
}

// A stalled turn must not move a closed loop's rate or CPU cost: both are
// taken at the median turn. Overlapping clients fall back to the window.
func TestRateAndCPUAtTheMedianTurn(t *testing.T) {
	const u = time.Millisecond
	tl := tally{
		latency: []time.Duration{400 * u, 400 * u, 400 * u, 400 * u, 4000 * u},
		cycle:   []time.Duration{500 * u, 500 * u, 500 * u, 500 * u, 5000 * u},
		cpu:     []time.Duration{450 * u, 450 * u, 450 * u, 450 * u, 900 * u},
	}
	one := workload{Clients: 1}
	if got := rate(one, tl, 7*time.Second); !near(got, 2) {
		t.Errorf("closed-loop rate = %v, want 2/s from the 500 ms median turn", got)
	}
	if got := cpuPerQuery(one, tl, 2700*u); !near(got, 450) {
		t.Errorf("closed-loop CPU per query = %v ms, want the median turn's 450", got)
	}
	open := workload{Clients: 2, OpenRate: 20}
	if got := rate(open, tl, 10*time.Second); !near(got, 0.5) {
		t.Errorf("open-loop rate = %v, want 5 completions over 10 s", got)
	}
	if got := cpuPerQuery(open, tl, 2700*u); !near(got, 540) {
		t.Errorf("open-loop CPU per query = %v ms, want the window's 2700 over 5", got)
	}
}
