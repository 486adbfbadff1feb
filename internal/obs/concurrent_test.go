package obs

import (
	"math/rand"
	"sync"
	"testing"
)

// TestHistogramConcurrentWriters is the property test behind the load
// harness's latency numbers: W writers hammer one histogram (and its
// siblings under other labels) while a reader keeps snapshotting. At
// every instant the observable state must be internally consistent —
// bucket sums never exceed the count, quantiles are monotone in p and
// inside the bucket range — and once the writers join, counts and sums
// are conserved exactly.
func TestHistogramConcurrentWriters(t *testing.T) {
	const (
		writers = 8
		perW    = 5000
	)
	reg := NewRegistry()
	bounds := []float64{0.001, 0.01, 0.1, 1, 10}
	h := reg.Histogram("test_conc_seconds", bounds, L("stage", "measure"))
	sibling := reg.Histogram("test_conc_seconds", bounds, L("stage", "warmup"))

	var want struct {
		sync.Mutex
		sum float64
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// The reader races real snapshots against the writers and checks
	// invariants on every cut. t.Errorf is safe from other goroutines.
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := reg.Snapshot()
			hs := snap.Histogram("test_conc_seconds", L("stage", "measure"))
			if hs == nil {
				continue
			}
			var inBuckets int64
			for _, b := range hs.Buckets {
				if b.Count < 0 {
					t.Errorf("negative bucket count %d", b.Count)
					return
				}
				inBuckets += b.Count
			}
			// Observe bumps the bucket before the count and the snapshot
			// reads the count before the buckets, so every counted sample
			// is already in a bucket: the cut may run ahead of the count
			// (by however many Observes land while the reader is between
			// the two reads — unbounded if it is descheduled there) but
			// never behind it.
			if inBuckets+hs.Overflow < hs.Count {
				t.Errorf("buckets %d + overflow %d behind count %d: a counted sample is in no bucket",
					inBuckets, hs.Overflow, hs.Count)
				return
			}
			if !(hs.P50 <= hs.P95 && hs.P95 <= hs.P99) {
				t.Errorf("quantiles not monotone: p50=%v p95=%v p99=%v", hs.P50, hs.P95, hs.P99)
				return
			}
			if hs.P99 > bounds[len(bounds)-1] || hs.P50 < 0 {
				t.Errorf("quantile outside bucket range: p50=%v p99=%v", hs.P50, hs.P99)
				return
			}
		}
	}()

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			local := 0.0
			for i := 0; i < perW; i++ {
				// Spread across buckets, including the overflow bucket.
				v := rng.Float64() * 20
				h.Observe(v)
				local += v
				if i%7 == 0 {
					sibling.Observe(v) // label siblings must not interfere
				}
			}
			want.Lock()
			want.sum += local
			want.Unlock()
		}(int64(100 + w))
	}
	wg.Wait()
	close(stop)
	<-readerDone

	// Conservation after the join: exact count, exact sum (float adds are
	// order-dependent, so compare within floating tolerance), and the
	// final buckets partition the count exactly.
	if got := h.Count(); got != writers*perW {
		t.Fatalf("count %d, want %d — observations lost", got, writers*perW)
	}
	if got := h.Sum(); !closeEnough(got, want.sum) {
		t.Fatalf("sum %v, want %v", got, want.sum)
	}
	hs := reg.Snapshot().Histogram("test_conc_seconds", L("stage", "measure"))
	var inBuckets int64
	for _, b := range hs.Buckets {
		inBuckets += b.Count
	}
	if inBuckets+hs.Overflow != hs.Count {
		t.Fatalf("final buckets %d + overflow %d != count %d", inBuckets, hs.Overflow, hs.Count)
	}
	// Quantiles of the settled histogram are monotone across a dense
	// sweep of p, not just the three published points.
	prev := 0.0
	for p := 0.05; p < 1.0; p += 0.05 {
		q := h.Quantile(p)
		if q < prev {
			t.Fatalf("Quantile(%.2f)=%v < Quantile(prev)=%v", p, q, prev)
		}
		prev = q
	}
	// The sibling label saw its own, smaller stream.
	if sc := sibling.Count(); sc <= 0 || sc >= writers*perW {
		t.Fatalf("sibling count %d outside (0, %d)", sc, writers*perW)
	}
}

// TestCounterConcurrentWriters: the load harness's outcome counters are
// incremented from every worker goroutine; increments must never be
// lost, and label series must stay independent.
func TestCounterConcurrentWriters(t *testing.T) {
	const (
		writers = 8
		perW    = 10000
	)
	reg := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ok := reg.Counter("test_conc_total", L("outcome", "ok"))
			bad := reg.Counter("test_conc_total", L("outcome", "error"))
			for i := 0; i < perW; i++ {
				ok.Inc()
				if i%10 == 0 {
					bad.Inc()
				}
			}
		}(w)
	}
	wg.Wait()
	snap := reg.Snapshot()
	if got := snap.Counter("test_conc_total", L("outcome", "ok")); got != writers*perW {
		t.Fatalf("ok = %d, want %d", got, writers*perW)
	}
	if got := snap.Counter("test_conc_total", L("outcome", "error")); got != writers*perW/10 {
		t.Fatalf("error = %d, want %d", got, writers*perW/10)
	}
}

func closeEnough(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := b
	if scale < 1 {
		scale = 1
	}
	return d/scale < 1e-9
}
