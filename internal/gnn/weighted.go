package gnn

import (
	"fmt"
	"math"

	"ppgnn/internal/geo"
	"ppgnn/internal/rtree"
)

// Weighted answers group queries under the weighted-sum aggregate
// F(p) = Σ_i w_i · dist(p, l_i), the natural generalization the paper's
// "any monotonically increasing aggregate function F" admits: weights
// model users with different travel costs (walking vs driving, or priority
// members whose convenience matters more).
//
// Like MBM it is a best-first branch and bound over the R-tree, with the
// node bound of MBM's Sum (sumBound): the larger of Σ_i w_i·mindist(N, l_i)
// and the tangent plane of the convex cost at N's centre, both admissible
// because every w_i ≥ 0.
// It implements Searcher, so it plugs into the protocol's black box the
// same way as the road-network engine (LSP.Search override).
type Weighted struct {
	Tree *rtree.Tree
	// Weights w_i ≥ 0, one per query location, matched by position. A
	// query with a different length is rejected by Search (nil result).
	Weights []float64
}

var _ Searcher = (*Weighted)(nil)

// Validate reports malformed weights.
func (w *Weighted) Validate() error {
	if len(w.Weights) == 0 {
		return fmt.Errorf("gnn: weighted searcher without weights")
	}
	positive := false
	for i, wi := range w.Weights {
		if wi < 0 {
			return fmt.Errorf("gnn: negative weight %v at %d", wi, i)
		}
		if wi > 0 {
			positive = true
		}
	}
	if !positive {
		return fmt.Errorf("gnn: all weights are zero")
	}
	return nil
}

// Cost evaluates the weighted sum for a candidate point.
func (w *Weighted) Cost(p geo.Point, query []geo.Point) float64 {
	s := 0.0
	for i, q := range query {
		s += w.Weights[i] * p.Dist(q)
	}
	return s
}

// Search implements Searcher. It returns nil when the query length does
// not match the weights (a misconfiguration the caller must fix).
func (w *Weighted) Search(query []geo.Point, k int) []Result {
	if k <= 0 || len(query) == 0 || len(query) != len(w.Weights) || w.Tree.Len() == 0 {
		return nil
	}
	if err := w.Validate(); err != nil {
		return nil
	}
	out, _ := w.search(query, k)
	return out
}

// search is Search after validation; it also returns the scanned count.
func (w *Weighted) search(query []geo.Point, k int) ([]Result, int) {
	return bestFirst(w.Tree, k, math.Inf(1),
		func(rect geo.Rect) float64 { return sumBound(rect, query, w.Weights) },
		func(p geo.Point) float64 { return w.Cost(p, query) })
}
