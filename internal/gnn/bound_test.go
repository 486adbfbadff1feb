package gnn

import (
	"math"
	"math/rand"
	"testing"

	"ppgnn/internal/geo"
	"ppgnn/internal/rtree"
)

// checkSumBound fails unless the Sum node bound over rect is at most the
// computed cost at every probe point — the exact comparison bestFirst's
// cut relies on, with no tolerance.
func checkSumBound(t testing.TB, rect geo.Rect, query []geo.Point, probes []geo.Point) {
	t.Helper()
	bound := Sum.nodeLowerBound(rect, query)
	for _, p := range probes {
		if c := Sum.Cost(p, query); bound > c {
			t.Fatalf("rect %v query %v: sum bound %v above cost %v at %v", rect, query, bound, c, p)
		}
	}
}

// lerp returns the point at fractions (u, v) across rect, clamped into it
// against rounding.
func lerp(rect geo.Rect, u, v float64) geo.Point {
	return rect.Clamp(geo.Point{
		X: rect.Min.X*(1-u) + rect.Max.X*u,
		Y: rect.Min.Y*(1-v) + rect.Max.Y*v,
	})
}

// rectProbes is rect's corners and centre plus random interior points.
func rectProbes(rng *rand.Rand, rect geo.Rect, interior int) []geo.Point {
	out := []geo.Point{
		rect.Min, rect.Max,
		{X: rect.Min.X, Y: rect.Max.Y}, {X: rect.Max.X, Y: rect.Min.Y},
		rect.Clamp(rect.Center()),
	}
	for i := 0; i < interior; i++ {
		out = append(out, lerp(rect, rng.Float64(), rng.Float64()))
	}
	return out
}

// boundQuery draws n query points for rect: its centre, its corners,
// repeats of earlier points, and points around it at up to three times
// its size, or anywhere in space.
func boundQuery(rng *rand.Rand, rect, space geo.Rect, n int) []geo.Point {
	q := make([]geo.Point, n)
	marks := rectProbes(rng, rect, 0)
	for i := range q {
		switch r := rng.Intn(5); {
		case r == 0:
			q[i] = rect.Center()
		case r == 1:
			q[i] = marks[rng.Intn(len(marks))]
		case r == 2 && i > 0:
			q[i] = q[rng.Intn(i)]
		case r == 3:
			u, v := 3*rng.Float64()-1, 3*rng.Float64()-1
			q[i] = geo.Point{
				X: rect.Min.X*(1-u) + rect.Max.X*u,
				Y: rect.Min.Y*(1-v) + rect.Max.Y*v,
			}
		default:
			q[i] = lerp(space, rng.Float64(), rng.Float64())
		}
		if math.IsInf(q[i].X, 0) || math.IsInf(q[i].Y, 0) {
			q[i] = rect.Center()
		}
	}
	return q
}

// itemsUnder returns the POIs in n's subtree.
func itemsUnder(n *rtree.Node) []rtree.Item {
	if n.IsLeaf() {
		return n.Items()
	}
	var out []rtree.Item
	for _, c := range n.Children() {
		out = append(out, itemsUnder(c)...)
	}
	return out
}

// nodesOf returns every node of the tree rooted at n.
func nodesOf(n *rtree.Node) []*rtree.Node {
	out := []*rtree.Node{n}
	for _, c := range n.Children() {
		out = append(out, nodesOf(c)...)
	}
	return out
}

// boundSpaces are the service spaces the bound is checked in: the unit
// square, spaces scaled to [0, 1e-6] and [0, 1e6], a small window far from
// the origin where coordinates keep few fractional bits, and a space whose
// distances overflow to +Inf.
var boundSpaces = []geo.Rect{
	geo.UnitRect,
	{Max: geo.Point{X: 1e-6, Y: 1e-6}},
	{Max: geo.Point{X: 1e6, Y: 1e6}},
	{Min: geo.Point{X: 1e15, Y: -1e15}, Max: geo.Point{X: 1e15 + 1e3, Y: -1e15 + 1e3}},
	{Min: geo.Point{X: -1e308, Y: -1e308}, Max: geo.Point{X: 1e308, Y: 1e308}},
}

// TestTangentBoundAdmissible checks that the Sum node bound never exceeds
// the computed cost of a point the node can hold: at the corners, centre
// and random interior points of random and degenerate single-point rects,
// and at every POI under every node of real trees with duplicated
// locations, for queries on the rect's centre and corners, repeated points
// and spread points, in every boundSpaces space.
// On the same trees MBM's Sum answers equal BruteForce's exactly, also
// with the cutoff at the exact k-th cost.
func TestTangentBoundAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for _, space := range boundSpaces {
		for trial := 0; trial < 200; trial++ {
			rect := geo.NewRect(lerp(space, rng.Float64(), rng.Float64()), lerp(space, rng.Float64(), rng.Float64()))
			if trial%4 == 0 {
				rect = geo.NewRect(rect.Min, rect.Min)
			}
			n := 1 + rng.Intn(10)
			checkSumBound(t, rect, boundQuery(rng, rect, space, n), rectProbes(rng, rect, 16))
		}

		items := make([]rtree.Item, 1200)
		for i := range items {
			items[i] = rtree.Item{ID: int64(i), P: lerp(space, rng.Float64(), rng.Float64())}
		}
		items = withDuplicates(items)
		for _, fanout := range []int{4, rtree.DefaultMaxEntries} {
			tree := rtree.Bulk(items, fanout)
			nodes := nodesOf(tree.Root())
			for trial := 0; trial < 8; trial++ {
				at := nodes[rng.Intn(len(nodes))].Rect()
				n := 1 + rng.Intn(8)
				q := boundQuery(rng, at, space, n)
				for _, node := range nodes {
					var probes []geo.Point
					for _, it := range itemsUnder(node) {
						probes = append(probes, it.P)
					}
					checkSumBound(t, node.Rect(), q, probes)
				}
				k := 1 + rng.Intn(12)
				want := (&BruteForce{Items: items, Agg: Sum}).Search(q, k)
				mbm := &MBM{Tree: tree, Agg: Sum}
				for _, maxCost := range []float64{math.Inf(1), want[len(want)-1].Cost} {
					got, _ := mbm.SearchBounded(q, k, maxCost)
					if len(got) != len(want) {
						t.Fatalf("space %v cutoff %v: %d results, brute force %d", space, maxCost, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("space %v cutoff %v rank %d: got %+v, brute force %+v", space, maxCost, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// FuzzTangentBound checks the Sum node bound against the computed cost at
// the corners, centre and random interior points of an arbitrary finite
// rect, for queries built around it by boundQuery.
func FuzzTangentBound(f *testing.F) {
	for _, s := range boundSpaces {
		f.Add(s.Min.X, s.Min.Y, s.Max.X, s.Max.Y, int64(1), uint8(8))
		c := s.Center()
		f.Add(c.X, c.Y, c.X, c.Y, int64(2), uint8(3))
	}
	f.Fuzz(func(t *testing.T, x0, y0, x1, y1 float64, seed int64, n uint8) {
		for _, v := range []float64{x0, y0, x1, y1} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		rng := rand.New(rand.NewSource(seed))
		rect := geo.NewRect(geo.Point{X: x0, Y: y0}, geo.Point{X: x1, Y: y1})
		users := 1 + int(n)%16
		q := boundQuery(rng, rect, rect, users)
		checkSumBound(t, rect, q, rectProbes(rng, rect, 16))
	})
}
