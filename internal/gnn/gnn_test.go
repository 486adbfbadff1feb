package gnn

import (
	"math"
	"math/rand"
	"testing"

	"ppgnn/internal/geo"
	"ppgnn/internal/rtree"
)

func randomItems(rng *rand.Rand, n int) []rtree.Item {
	items := make([]rtree.Item, n)
	for i := range items {
		items[i] = rtree.Item{ID: int64(i), P: geo.Point{X: rng.Float64(), Y: rng.Float64()}}
	}
	return items
}

func randomQuery(rng *rand.Rand, n int) []geo.Point {
	q := make([]geo.Point, n)
	for i := range q {
		q[i] = geo.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	return q
}

func TestAggregateCombine(t *testing.T) {
	d := []float64{3, 1, 2}
	if got := Sum.Combine(d); got != 6 {
		t.Errorf("Sum = %v", got)
	}
	if got := Max.Combine(d); got != 3 {
		t.Errorf("Max = %v", got)
	}
	if got := Min.Combine(d); got != 1 {
		t.Errorf("Min = %v", got)
	}
}

func TestAggregateCombinePanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on empty combine")
		}
	}()
	Sum.Combine(nil)
}

func TestAggregateString(t *testing.T) {
	if Sum.String() != "sum" || Max.String() != "max" || Min.String() != "min" {
		t.Fatal("Aggregate.String mismatch")
	}
}

func TestCostMatchesCombine(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		p := geo.Point{X: rng.Float64(), Y: rng.Float64()}
		q := randomQuery(rng, 1+rng.Intn(8))
		dists := make([]float64, len(q))
		for i, l := range q {
			dists[i] = p.Dist(l)
		}
		for _, agg := range []Aggregate{Sum, Max, Min} {
			if got, want := agg.Cost(p, q), agg.Combine(dists); math.Abs(got-want) > 1e-12 {
				t.Fatalf("%v: Cost=%v Combine=%v", agg, got, want)
			}
		}
	}
}

// TestMBMMatchesBruteForce is the core correctness property: the
// branch-and-bound must return exactly the brute-force ranking for every
// aggregate.
func TestMBMMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	items := randomItems(rng, 3000)
	tree := rtree.Bulk(items, 16)
	for _, agg := range []Aggregate{Sum, Max, Min} {
		mbm := &MBM{Tree: tree, Agg: agg}
		bf := &BruteForce{Items: items, Agg: agg}
		for trial := 0; trial < 30; trial++ {
			n := 1 + rng.Intn(10)
			k := 1 + rng.Intn(16)
			q := randomQuery(rng, n)
			got := mbm.Search(q, k)
			want := bf.Search(q, k)
			if len(got) != len(want) {
				t.Fatalf("%v: got %d results, want %d", agg, len(got), len(want))
			}
			for i := range got {
				if got[i].Item.ID != want[i].Item.ID {
					t.Fatalf("%v trial %d: rank %d got id %d (cost %v) want id %d (cost %v)",
						agg, trial, i, got[i].Item.ID, got[i].Cost, want[i].Item.ID, want[i].Cost)
				}
				if math.Abs(got[i].Cost-want[i].Cost) > 1e-9 {
					t.Fatalf("%v: cost mismatch at rank %d", agg, i)
				}
			}
		}
	}
}

// TestSearchBoundedAtKthCost pins the cutoff contract of SearchBounded:
// with maxCost set to the exact k-th cost the bounded search returns the
// same (cost, ID)-ordered k results as Search — a POI tied with the k-th
// at the cutoff is not lost and does not displace it — without scanning
// more POIs, and just below the cutoff it returns only the strictly
// cheaper prefix.
func TestSearchBoundedAtKthCost(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	items := randomItems(rng, 2000)
	base := rtree.Bulk(items, 16)
	for _, agg := range []Aggregate{Sum, Max, Min} {
		for trial := 0; trial < 10; trial++ {
			q := randomQuery(rng, 1+rng.Intn(8))
			k := 2 + rng.Intn(12)
			// Duplicate the k-th POI under a larger ID, so ranks k and k+1
			// tie on cost and only the ID order separates them.
			kth := (&MBM{Tree: base, Agg: agg}).Search(q, k)[k-1]
			tied := rtree.Item{ID: int64(len(items)), P: kth.Item.P}
			mbm := &MBM{Tree: rtree.Bulk(append(items[:len(items):len(items)], tied), 16), Agg: agg}

			want := mbm.Search(q, k)
			_, scannedAll := mbm.SearchBounded(q, k, math.Inf(1))
			cutoff := want[k-1].Cost
			if next := mbm.Search(q, k+1)[k]; want[k-1].Item.ID != kth.Item.ID || next.Item.ID != tied.ID || next.Cost != cutoff {
				t.Fatalf("%v trial %d: set-up did not produce a tie at rank k", agg, trial)
			}

			got, scanned := mbm.SearchBounded(q, k, cutoff)
			if len(got) != k {
				t.Fatalf("%v trial %d: cutoff at the k-th cost returned %d of %d results", agg, trial, len(got), k)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v trial %d rank %d: bounded %+v, unbounded %+v", agg, trial, i, got[i], want[i])
				}
			}
			if scanned > scannedAll {
				t.Fatalf("%v trial %d: bounded search scanned %d POIs, unbounded search %d", agg, trial, scanned, scannedAll)
			}

			below, _ := mbm.SearchBounded(q, k, math.Nextafter(cutoff, 0))
			if len(below) >= k {
				t.Fatalf("%v trial %d: cutoff below the k-th cost still returned %d results", agg, trial, len(below))
			}
			for i, r := range below {
				if r != want[i] || r.Cost >= cutoff {
					t.Fatalf("%v trial %d rank %d: below-cutoff result %+v is not the strict prefix of %+v", agg, trial, i, r, want[i])
				}
			}
		}
	}
}

func TestSearchResultsAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	items := randomItems(rng, 1000)
	tree := rtree.Bulk(items, 16)
	for _, agg := range []Aggregate{Sum, Max, Min} {
		mbm := &MBM{Tree: tree, Agg: agg}
		res := mbm.Search(randomQuery(rng, 5), 20)
		for i := 1; i < len(res); i++ {
			if res[i].Cost < res[i-1].Cost-1e-12 {
				t.Fatalf("%v: results not ascending at %d", agg, i)
			}
		}
	}
}

func TestSearchEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	items := randomItems(rng, 50)
	tree := rtree.Bulk(items, 8)
	mbm := &MBM{Tree: tree, Agg: Sum}
	if got := mbm.Search(nil, 5); got != nil {
		t.Error("empty query should return nil")
	}
	if got := mbm.Search(randomQuery(rng, 3), 0); got != nil {
		t.Error("k=0 should return nil")
	}
	empty := &MBM{Tree: rtree.New(0), Agg: Sum}
	if got := empty.Search(randomQuery(rng, 3), 5); got != nil {
		t.Error("empty tree should return nil")
	}
	// k greater than database size returns everything ranked.
	if got := mbm.Search(randomQuery(rng, 2), 100); len(got) != 50 {
		t.Errorf("k>size returned %d results, want 50", len(got))
	}
}

func TestSingleUserEqualsKNN(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	items := randomItems(rng, 1500)
	tree := rtree.Bulk(items, 16)
	mbm := &MBM{Tree: tree, Agg: Sum}
	for trial := 0; trial < 20; trial++ {
		q := geo.Point{X: rng.Float64(), Y: rng.Float64()}
		k := 1 + rng.Intn(10)
		gnnRes := mbm.Search([]geo.Point{q}, k)
		knnRes := tree.NearestK(q, k)
		if len(gnnRes) != len(knnRes) {
			t.Fatalf("length mismatch %d vs %d", len(gnnRes), len(knnRes))
		}
		for i := range gnnRes {
			if gnnRes[i].Item.ID != knnRes[i].Item.ID {
				t.Fatalf("kGNN(n=1) != kNN at rank %d", i)
			}
		}
	}
}

// For n=1 all three aggregates coincide.
func TestAggregatesCoincideForSingleUser(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	items := randomItems(rng, 500)
	tree := rtree.Bulk(items, 16)
	q := randomQuery(rng, 1)
	sum := (&MBM{Tree: tree, Agg: Sum}).Search(q, 10)
	mx := (&MBM{Tree: tree, Agg: Max}).Search(q, 10)
	mn := (&MBM{Tree: tree, Agg: Min}).Search(q, 10)
	for i := range sum {
		if sum[i].Item.ID != mx[i].Item.ID || sum[i].Item.ID != mn[i].Item.ID {
			t.Fatalf("aggregates disagree for n=1 at rank %d", i)
		}
	}
}

// The first result of a sum-kGNN must minimize the total distance; verify
// directly against definition on a small instance.
func TestDefinitionHolds(t *testing.T) {
	items := []rtree.Item{
		{ID: 1, P: geo.Point{X: 0.1, Y: 0.1}},
		{ID: 2, P: geo.Point{X: 0.5, Y: 0.5}},
		{ID: 3, P: geo.Point{X: 0.9, Y: 0.9}},
		{ID: 4, P: geo.Point{X: 0.45, Y: 0.55}},
	}
	tree := rtree.Bulk(items, 4)
	query := []geo.Point{{X: 0.4, Y: 0.4}, {X: 0.6, Y: 0.6}}
	res := (&MBM{Tree: tree, Agg: Sum}).Search(query, 2)
	if res[0].Item.ID != 2 {
		t.Fatalf("top result = %d, want 2 (the central POI)", res[0].Item.ID)
	}
	if res[1].Item.ID != 4 {
		t.Fatalf("second result = %d, want 4", res[1].Item.ID)
	}
}

func TestBruteForceEdgeCases(t *testing.T) {
	bf := &BruteForce{Items: nil, Agg: Sum}
	if bf.Search([]geo.Point{{X: 0.5, Y: 0.5}}, 3) != nil {
		t.Error("empty brute force should return nil")
	}
}

func TestRectMinDist(t *testing.T) {
	a := geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 1, Y: 1}}
	b := geo.Rect{Min: geo.Point{X: 2, Y: 0}, Max: geo.Point{X: 3, Y: 1}}
	if got := rectMinDist(a, b); got != 1 {
		t.Errorf("rectMinDist = %v, want 1", got)
	}
	c := geo.Rect{Min: geo.Point{X: 0.5, Y: 0.5}, Max: geo.Point{X: 2, Y: 2}}
	if got := rectMinDist(a, c); got != 0 {
		t.Errorf("overlapping rectMinDist = %v, want 0", got)
	}
	d := geo.Rect{Min: geo.Point{X: 4, Y: 5}, Max: geo.Point{X: 6, Y: 7}}
	if got := rectMinDist(a, d); math.Abs(got-5) > 1e-12 {
		t.Errorf("diagonal rectMinDist = %v, want 5", got)
	}
}

func BenchmarkMBMSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	items := randomItems(rng, 62556)
	tree := rtree.Bulk(items, rtree.DefaultMaxEntries)
	mbm := &MBM{Tree: tree, Agg: Sum}
	q := randomQuery(rng, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mbm.Search(q, 8)
	}
}

func BenchmarkBruteForceSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	items := randomItems(rng, 62556)
	bf := &BruteForce{Items: items, Agg: Sum}
	q := randomQuery(rng, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bf.Search(q, 8)
	}
}
