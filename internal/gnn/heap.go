package gnn

import (
	"ppgnn/internal/geo"
	"ppgnn/internal/rtree"
)

// bestFirst is the branch and bound shared by MBM and Weighted: a
// best-first walk of tree that returns the k POIs of smallest cost with
// cost <= maxCost, ascending by (cost, ID), and the number of POIs whose
// exact cost it evaluated. bound must be an admissible lower bound on cost
// over a rectangle that never decreases from a node to its children.
//
// Only nodes enter the queue. The k best POIs seen so far sit in a k-slot
// max-heap, and the pruning cut is min(maxCost, current k-th cost): a child
// is queued only if its bound is within the cut, and the walk stops at the
// first popped node whose bound exceeds it. Ties are pruned strictly, so
// every node whose bound equals the final k-th cost is still expanded and
// a POI tied with the k-th on cost but of smaller ID is never missed. The
// expanded nodes are therefore exactly those with bound <= min(maxCost,
// true k-th cost) — the same set, in the same order up to ties, that a
// single queue of nodes and POIs ordered by (bound, node-before-POI, ID)
// expands before emitting its k-th POI.
func bestFirst(tree *rtree.Tree, k int, maxCost float64,
	bound func(geo.Rect) float64, cost func(geo.Point) float64) ([]Result, int) {
	best := kBest{k: k, size: tree.Len()}
	// A group query's frontier is a few hundred nodes; starting there
	// saves the first eight doublings.
	nodes := make(nodeHeap, 0, 256)
	root := tree.Root()
	if b := bound(root.Rect()); b <= maxCost {
		nodes.push(b, root)
	}
	scanned := 0
	for len(nodes) > 0 {
		e := nodes.pop()
		cut := best.cut(maxCost)
		if e.bound > cut {
			break
		}
		if e.node.IsLeaf() {
			for _, it := range e.node.Items() {
				scanned++
				if c := cost(it.P); c <= best.cut(maxCost) {
					best.add(Result{Item: it, Cost: c})
				}
			}
			continue
		}
		for _, c := range e.node.Children() {
			if b := bound(c.Rect()); b <= cut {
				nodes.push(b, c)
			}
		}
	}
	return best.sorted(), scanned
}

// nodeEntry is an R-tree node queued under its lower bound.
type nodeEntry struct {
	bound float64
	node  *rtree.Node
}

// nodeHeap is a min-heap of nodes by bound.
type nodeHeap []nodeEntry

func (h *nodeHeap) push(bound float64, n *rtree.Node) {
	*h = append(*h, nodeEntry{bound: bound, node: n})
	q := *h
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if q[p].bound <= q[i].bound {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
}

func (h *nodeHeap) pop() nodeEntry {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	for i := 0; ; {
		l := 2*i + 1
		if l >= len(q) {
			break
		}
		if r := l + 1; r < len(q) && q[r].bound < q[l].bound {
			l = r
		}
		if q[i].bound <= q[l].bound {
			break
		}
		q[i], q[l] = q[l], q[i]
		i = l
	}
	*h = q
	return top
}

// kBest keeps the k smallest results seen so far by (cost, ID) in a
// max-heap, worst at the root. Its slots are allocated on the first add,
// at most min(k, size) of them, so a huge k against a small database
// costs nothing.
type kBest struct {
	k    int
	size int // upper bound on the number of results (the database size)
	h    []Result
}

// worse reports whether a ranks after b.
func worse(a, b Result) bool {
	if a.Cost != b.Cost {
		return a.Cost > b.Cost
	}
	return a.Item.ID > b.Item.ID
}

func (b *kBest) full() bool { return len(b.h) >= b.k }

// worst returns the k-th best cost; call only when full.
func (b *kBest) worst() float64 { return b.h[0].Cost }

// cut is the pruning cut: limit while fewer than k results are held, the
// smaller of limit and the k-th best cost once full.
func (b *kBest) cut(limit float64) float64 {
	if b.full() && b.worst() < limit {
		return b.worst()
	}
	return limit
}

// add offers r: it is kept if fewer than k results are held or it ranks
// before the current worst.
func (b *kBest) add(r Result) {
	if !b.full() {
		if b.h == nil {
			b.h = make([]Result, 0, min(b.k, b.size))
		}
		b.h = append(b.h, r)
		for i := len(b.h) - 1; i > 0; {
			p := (i - 1) / 2
			if !worse(b.h[i], b.h[p]) {
				break
			}
			b.h[p], b.h[i] = b.h[i], b.h[p]
			i = p
		}
		return
	}
	if worse(b.h[0], r) {
		b.h[0] = r
		b.siftDown(len(b.h))
	}
}

// siftDown restores the max-heap order of h[:n] below the root.
func (b *kBest) siftDown(n int) {
	h := b.h
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			return
		}
		if r := l + 1; r < n && worse(h[r], h[l]) {
			l = r
		}
		if !worse(h[l], h[i]) {
			return
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
}

// sorted heap-sorts the held results in place into ascending (cost, ID)
// order and returns them (nil when none are held). The kBest is spent.
func (b *kBest) sorted() []Result {
	for n := len(b.h) - 1; n > 0; n-- {
		b.h[0], b.h[n] = b.h[n], b.h[0]
		b.siftDown(n)
	}
	return b.h
}
