package gnn

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"ppgnn/internal/dataset"
	"ppgnn/internal/geo"
	"ppgnn/internal/rtree"
)

// weightedBrute is the exhaustive reference.
func weightedBrute(items []rtree.Item, query []geo.Point, weights []float64, k int) []Result {
	all := make([]Result, 0, len(items))
	for _, it := range items {
		s := 0.0
		for i, q := range query {
			s += weights[i] * it.P.Dist(q)
		}
		all = append(all, Result{Item: it, Cost: s})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Cost != all[j].Cost {
			return all[i].Cost < all[j].Cost
		}
		return all[i].Item.ID < all[j].Item.ID
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// TestWeightedMatchesBruteForce checks Weighted against the exhaustive
// ranking on 3k uniform POIs with random queries, and on 100k clustered
// POIs with the δ′ candidate queries of an n=8, d=25, δ=100 group — the
// queries near whose optimum the tangent-plane bound prunes hardest.
func TestWeightedMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	uniform := randomItems(rng, 3000)
	var uniformQueries [][]geo.Point
	for trial := 0; trial < 20; trial++ {
		uniformQueries = append(uniformQueries, randomQuery(rng, 1+rng.Intn(6)))
	}
	clustered := dataset.Synthetic(5, 100000)
	cands := groupCandidates(rand.New(rand.NewSource(7)), 8, 25, 100)
	for _, db := range []struct {
		items   []rtree.Item
		fanout  int
		queries [][]geo.Point
	}{
		{uniform, 16, uniformQueries},
		{clustered, rtree.DefaultMaxEntries, cands[:12]},
	} {
		tree := rtree.Bulk(db.items, db.fanout)
		for trial, query := range db.queries {
			n := len(query)
			weights := make([]float64, n)
			for i := range weights {
				weights[i] = rng.Float64() * 5
			}
			weights[rng.Intn(n)] = 1 // ensure at least one positive
			w := &Weighted{Tree: tree, Weights: weights}
			k := 1 + rng.Intn(10)
			got := w.Search(query, k)
			want := weightedBrute(db.items, query, weights, k)
			if len(got) != len(want) {
				t.Fatalf("%d POIs trial %d: %d results, want %d", len(db.items), trial, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%d POIs trial %d rank %d: got %+v, want %+v", len(db.items), trial, i, got[i], want[i])
				}
			}
		}
	}
}

// Equal weights reduce the weighted search to plain sum-kGNN (scaled).
func TestWeightedReducesToSum(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	items := randomItems(rng, 1500)
	tree := rtree.Bulk(items, 16)
	query := randomQuery(rng, 4)
	w := &Weighted{Tree: tree, Weights: []float64{2, 2, 2, 2}}
	got := w.Search(query, 8)
	want := (&MBM{Tree: tree, Agg: Sum}).Search(query, 8)
	for i := range want {
		if got[i].Item.ID != want[i].Item.ID {
			t.Fatalf("rank %d: weighted %d, sum %d", i, got[i].Item.ID, want[i].Item.ID)
		}
		if math.Abs(got[i].Cost-2*want[i].Cost) > 1e-9 {
			t.Fatalf("rank %d: weighted cost %v != 2×%v", i, got[i].Cost, want[i].Cost)
		}
	}
}

// A zero-weight user does not influence the ranking at all.
func TestWeightedZeroWeightIgnored(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	items := randomItems(rng, 1000)
	tree := rtree.Bulk(items, 16)
	base := randomQuery(rng, 3)
	w := &Weighted{Tree: tree, Weights: []float64{1, 1, 0}}
	a := w.Search(base, 6)
	moved := append(append([]geo.Point{}, base[:2]...), geo.Point{X: 0.999, Y: 0.001})
	b := w.Search(moved, 6)
	for i := range a {
		if a[i].Item.ID != b[i].Item.ID {
			t.Fatalf("zero-weight user changed the ranking at %d", i)
		}
	}
}

func TestWeightedValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	items := randomItems(rng, 100)
	tree := rtree.Bulk(items, 8)
	q := randomQuery(rng, 2)
	cases := []*Weighted{
		{Tree: tree, Weights: nil},
		{Tree: tree, Weights: []float64{1, -1}},
		{Tree: tree, Weights: []float64{0, 0}},
		{Tree: tree, Weights: []float64{1, 1, 1}}, // length mismatch
	}
	for i, w := range cases {
		if got := w.Search(q, 4); got != nil {
			t.Errorf("case %d: invalid weighted search returned results", i)
		}
	}
	good := &Weighted{Tree: tree, Weights: []float64{1, 1}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid weights rejected: %v", err)
	}
}
