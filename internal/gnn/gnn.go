// Package gnn implements the plaintext group k-nearest-neighbor (kGNN)
// query of Definition 2.1: given a POI database, n query locations, and a
// monotonically increasing aggregate F over the per-user distances, find
// the k POIs with the smallest aggregate cost, in ascending order.
//
// The main engine is the Minimum Bounding Method (MBM) of Papadias et al.
// ("Group Nearest Neighbor Queries", ICDE 2004): a best-first branch and
// bound over the LSP's R-tree that prunes a node N by the per-point bound
// F(mindist(N,l_1), …, mindist(N,l_n)), which dominates the paper's bound
// from the query points' minimum bounding rectangle. For Sum it also uses
// the tangent plane of the convex cost at N's centre, which is far tighter
// near the group's optimum (see sumBound).
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
// any point inside rect. For Max and Min it is F applied to the
// per-query-point MINDISTs; for Sum it is sumBound.
//
// MBM's other classic bound, the MINDIST between rect and the query
// points' MBR (times n for Sum), is dominated and not computed: every l_u
// lies inside the MBR, so MINDIST(rect, l_u) >= MINDIST(rect, MBR) for
// each u, and Sum, Max and Min of the per-point terms are each at least
// the same aggregate of n copies of the MBR term.
func (a Aggregate) nodeLowerBound(rect geo.Rect, query []geo.Point) float64 {
	switch a {
	case Sum:
		return sumBound(rect, query)
	case Max:
		m := 0.0
		for _, q := range query {
			if d := rect.MinDist(q); d > m {
				m = d
			}
		}
		return m
	case Min:
		m := math.Inf(1)
		for _, q := range query {
			if d := rect.MinDist(q); d < m {
				m = d
			}
		}
		return m
	default:
		panic("gnn: unknown aggregate")
	}
}

// tangentSlack is the relative safety margin of sumBound's tangent-plane
// bound; see the rounding argument there.
const tangentSlack = 1e-9

// sumBound returns an admissible lower bound on the Sum cost
// f(p) = Σ_u ‖p − l_u‖ over p in rect. It is the larger of two bounds:
//
//   - the per-point bound Σ_u MINDIST(rect, l_u), computed with the
//     same expression as the cost, so on a single-POI rect it equals the
//     computed cost exactly;
//   - the tangent-plane bound. f is convex, so with c the rect's centre
//     and g = Σ_u (c − l_u)/‖c − l_u‖ a subgradient at c (a term with
//     c = l_u contributes 0), f(p) >= f(c) + g·(p − c), which over the
//     rect is smallest at f(c) − |g_x|·h_x − |g_y|·h_y with h the largest
//     offset of the rect from c on each axis.
//
// The per-point bound's slack grows linearly with the rect's size, since
// the users pull in different directions; near the aggregate optimum g
// nearly vanishes and the tangent bound's slack is second order, which is
// what prunes the leaves around a group query's answers.
//
// Rounding. With ε the unit roundoff, the computed f(c) is within
// (n+2)ε·f(c) of the exact one; each computed g component is within
// (n+3)ε·n of the exact subgradient, which costs at most (n+3)ε·n·(h_x+h_y)
// in the plane; the final products and differences add a few ε of
// f(c) + n·(h_x+h_y). A POI's computed cost is within (n+2)ε·f(p) of its
// exact cost, and f(p) <= f(c) + n·(h_x+h_y). The total is below
// (3n+10)ε·(f(c) + n·(h_x+h_y)), so subtracting tangentSlack times that
// scale keeps the computed bound at or below every computed cost in the
// rect for any query under a million points. An overflow shows up as an
// infinity or NaN, and then the tangent bound contributes nothing.
func sumBound(rect geo.Rect, query []geo.Point) float64 {
	c := rect.Center()
	var pt, fc, gx, gy float64
	for _, q := range query {
		dx, dy := c.X-q.X, c.Y-q.Y
		d := math.Hypot(dx, dy)
		pt += rect.MinDist(q)
		fc += d
		if d > 0 {
			gx += dx / d
			gy += dy / d
		}
	}
	n := float64(len(query))
	hx := max(c.X-rect.Min.X, rect.Max.X-c.X)
	hy := max(c.Y-rect.Min.Y, rect.Max.Y-c.Y)
	tangent := fc - math.Abs(gx)*hx - math.Abs(gy)*hy - tangentSlack*(fc+n*(hx+hy))
	if tangent > pt && !math.IsInf(tangent, 0) {
		return tangent
	}
	return pt
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
	return bestFirst(m.Tree, k, maxCost,
		func(r geo.Rect) float64 { return m.Agg.nodeLowerBound(r, query) },
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
