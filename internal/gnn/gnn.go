// Package gnn implements the plaintext group k-nearest-neighbor (kGNN)
// query of Definition 2.1: given a POI database, n query locations, and a
// monotonically increasing aggregate F over the per-user distances, find
// the k POIs with the smallest aggregate cost, in ascending order.
//
// The main engine is the Minimum Bounding Method (MBM) of Papadias et al.
// ("Group Nearest Neighbor Queries", ICDE 2004): a best-first branch and
// bound over the LSP's R-tree that prunes nodes using two admissible lower
// bounds — the cheap bound derived from the minimum bounding rectangle M of
// the query points, and the tighter per-point bound F(mindist(N,l_1), …,
// mindist(N,l_n)).
//
// The PPGNN protocol treats query answering as a black box (paper Section
// 1), which the Searcher interface captures: anything that maps a set of
// query locations to a ranked answer can be plugged into the protocol —
// including non-kGNN group queries such as meeting location determination
// (see examples/ppmld).
package gnn

import (
	"fmt"
	"math"
	"sort"

	"ppgnn/internal/geo"
	"ppgnn/internal/rtree"
)

// Aggregate selects the monotone aggregate cost function F of Eqn (1).
type Aggregate int

const (
	// Sum minimizes the total travel distance (the default in the paper's
	// experiments; e.g. the best joint meeting place).
	Sum Aggregate = iota
	// Max minimizes the distance of the farthest user (earliest time at
	// which everyone can be there).
	Max
	// Min minimizes the distance of the nearest user (earliest time at
	// which anyone can be there).
	Min
)

// String implements fmt.Stringer.
func (a Aggregate) String() string {
	switch a {
	case Sum:
		return "sum"
	case Max:
		return "max"
	case Min:
		return "min"
	default:
		return fmt.Sprintf("Aggregate(%d)", int(a))
	}
}

// Combine applies the aggregate to a slice of distances. It panics on an
// empty slice since F is undefined for zero users.
func (a Aggregate) Combine(dists []float64) float64 {
	if len(dists) == 0 {
		panic("gnn: aggregate of no distances")
	}
	switch a {
	case Sum:
		s := 0.0
		for _, d := range dists {
			s += d
		}
		return s
	case Max:
		m := dists[0]
		for _, d := range dists[1:] {
			if d > m {
				m = d
			}
		}
		return m
	case Min:
		m := dists[0]
		for _, d := range dists[1:] {
			if d < m {
				m = d
			}
		}
		return m
	default:
		panic("gnn: unknown aggregate")
	}
}

// Cost evaluates F(dis(p, l_1), …, dis(p, l_n)) for a candidate point p.
func (a Aggregate) Cost(p geo.Point, query []geo.Point) float64 {
	if len(query) == 0 {
		panic("gnn: empty query")
	}
	switch a {
	case Sum:
		s := 0.0
		for _, q := range query {
			s += p.Dist(q)
		}
		return s
	case Max:
		m := 0.0
		for _, q := range query {
			if d := p.Dist(q); d > m {
				m = d
			}
		}
		return m
	case Min:
		m := math.Inf(1)
		for _, q := range query {
			if d := p.Dist(q); d < m {
				m = d
			}
		}
		return m
	default:
		panic("gnn: unknown aggregate")
	}
}

// nodeLowerBound returns an admissible lower bound on the aggregate cost of
// any point inside rect: F applied to the per-query-point MINDISTs, combined
// with the MBM bound from the query MBR.
func (a Aggregate) nodeLowerBound(rect geo.Rect, query []geo.Point, queryMBR geo.Rect) float64 {
	// MBM bound: every query point lies inside queryMBR, so any p in rect
	// has dist(p, l_i) >= the minimum distance between rect and queryMBR.
	mbrBound := rectMinDist(rect, queryMBR)
	if a == Sum {
		mbrBound *= float64(len(query))
	}
	// Tighter per-point bound.
	var ptBound float64
	switch a {
	case Sum:
		s := 0.0
		for _, q := range query {
			s += rect.MinDist(q)
		}
		ptBound = s
	case Max:
		m := 0.0
		for _, q := range query {
			if d := rect.MinDist(q); d > m {
				m = d
			}
		}
		ptBound = m
	case Min:
		m := math.Inf(1)
		for _, q := range query {
			if d := rect.MinDist(q); d < m {
				m = d
			}
		}
		ptBound = m
	}
	if mbrBound > ptBound {
		return mbrBound
	}
	return ptBound
}

// rectMinDist is the minimum distance between two rectangles.
func rectMinDist(a, b geo.Rect) float64 {
	dx := axisGap(a.Min.X, a.Max.X, b.Min.X, b.Max.X)
	dy := axisGap(a.Min.Y, a.Max.Y, b.Min.Y, b.Max.Y)
	return math.Hypot(dx, dy)
}

func axisGap(alo, ahi, blo, bhi float64) float64 {
	switch {
	case ahi < blo:
		return blo - ahi
	case bhi < alo:
		return alo - bhi
	default:
		return 0
	}
}

// Result is one ranked POI of a kGNN answer.
type Result struct {
	Item rtree.Item
	Cost float64
}

// Searcher is the black-box group query interface the PPGNN protocol builds
// on: it maps query locations to a ranked list of POIs.
type Searcher interface {
	Search(query []geo.Point, k int) []Result
}

// MBM answers kGNN queries over an R-tree using the Minimum Bounding Method.
type MBM struct {
	Tree *rtree.Tree
	Agg  Aggregate
}

var _ Searcher = (*MBM)(nil)

// Search returns the top-k POIs by aggregate cost in ascending order
// (ties broken by item ID). It returns fewer than k results only when the
// database holds fewer than k POIs.
func (m *MBM) Search(query []geo.Point, k int) []Result {
	out, _ := m.SearchBounded(query, k, math.Inf(1))
	return out
}

// SearchBounded is Search with an admissible cost cutoff: nodes whose
// lower bound exceeds maxCost are never expanded, and POIs costing more
// than maxCost are never returned. Any POI with aggregate cost <= maxCost
// is still returned, so a caller holding an upper bound on the true k-th
// cost gets a result byte-identical to the unbounded search. The second
// return value counts the POIs whose exact cost was evaluated — the
// per-query candidate work the benchmark reports as scanned POIs. The walk
// is bestFirst's: only nodes are queued, and the k best POIs so far tighten
// the cut as they arrive.
func (m *MBM) SearchBounded(query []geo.Point, k int, maxCost float64) ([]Result, int) {
	if k <= 0 || len(query) == 0 || m.Tree.Len() == 0 {
		return nil, 0
	}
	queryMBR := geo.RectOf(query...)
	return bestFirst(m.Tree, k, maxCost,
		func(r geo.Rect) float64 { return m.Agg.nodeLowerBound(r, query, queryMBR) },
		func(p geo.Point) float64 { return m.Agg.Cost(p, query) })
}

// BruteForce is the exhaustive reference implementation used for testing
// and as the query engine for databases too small to index.
type BruteForce struct {
	Items []rtree.Item
	Agg   Aggregate
}

var _ Searcher = (*BruteForce)(nil)

// Search scans all items and returns the top-k by aggregate cost.
func (b *BruteForce) Search(query []geo.Point, k int) []Result {
	if k <= 0 || len(query) == 0 || len(b.Items) == 0 {
		return nil
	}
	all := make([]Result, 0, len(b.Items))
	for _, it := range b.Items {
		all = append(all, Result{Item: it, Cost: b.Agg.Cost(it.P, query)})
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
