// Package rtree implements an in-memory R-tree over planar points: the
// spatial index the LSP uses to answer kNN and group kNN (MBM) queries on
// its POI database. It supports Guttman-style insertion with quadratic
// splits, deletion with reinsertion (so the database is dynamic, a property
// the paper's approach explicitly preserves), Sort-Tile-Recursive bulk
// loading by rank selection rather than sorting, window search, and
// best-first k-nearest-neighbor search.
//
// The tree exposes read-only node accessors so that higher layers (the MBM
// group nearest neighbor search in internal/gnn) can run their own
// branch-and-bound traversals with custom aggregate bounds.
package rtree

import (
	"container/heap"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"ppgnn/internal/geo"
)

// Item is an indexed point with a caller-assigned identifier.
type Item struct {
	ID int64
	P  geo.Point
}

// Tree is an R-tree. The zero value is not usable; call New or Bulk.
type Tree struct {
	root       *Node
	size       int
	minEntries int
	maxEntries int
	height     int
}

// Node is an R-tree node. Exported accessors are read-only; mutating the
// tree through them is not supported.
type Node struct {
	leaf     bool
	rect     geo.Rect
	children []*Node
	items    []Item
}

// IsLeaf reports whether the node stores items rather than child nodes.
func (n *Node) IsLeaf() bool { return n.leaf }

// Rect returns the node's minimum bounding rectangle.
func (n *Node) Rect() geo.Rect { return n.rect }

// Children returns the child nodes of an internal node (nil for leaves).
func (n *Node) Children() []*Node { return n.children }

// Items returns the items of a leaf node (nil for internal nodes).
func (n *Node) Items() []Item { return n.items }

// DefaultMaxEntries is the node capacity used by New and Bulk.
const DefaultMaxEntries = 32

// New returns an empty tree with the given maximum node fanout
// (DefaultMaxEntries if maxEntries <= 0).
func New(maxEntries int) *Tree {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	if maxEntries < 4 {
		maxEntries = 4
	}
	return &Tree{
		root:       &Node{leaf: true},
		minEntries: maxEntries * 2 / 5, // the common 40% fill floor
		maxEntries: maxEntries,
		height:     1,
	}
}

// Bulk builds a tree over the items using Sort-Tile-Recursive (STR)
// packing, which produces near-optimal leaves for static loads. STR needs
// only rank boundaries, not a sorted order: the slices of ⌈√leaves⌉·fanout
// items by x, then the leaves of fanout items by y within each slice. So
// Bulk finds those boundaries by multi-way selection (see tile) in
// O(n·log(n/fanout)) rather than sorting in O(n·log n). Items are ranked by
// (coordinate, ID) and inner nodes by (centre coordinate, position in their
// level), so ties split deterministically; where the keys at the block
// boundaries are distinct, the tree is exactly the one a full sort gives.
//
// Every leaf gets its own item array rather than a window of one shared
// array: leaves split under churn, and a split would leave the old window
// alive inside the shared array (+15% live heap on a 1M-item tree under
// insert/delete churn). The items slice is not retained.
func Bulk(items []Item, maxEntries int) *Tree {
	return bulk(items, maxEntries, 2*bits.Len(uint(len(items))))
}

// bulk is Bulk with the selection's round budget (see tile) given.
func bulk(items []Item, maxEntries, rounds int) *Tree {
	t := New(maxEntries)
	if len(items) == 0 {
		return t
	}
	own := append([]Item(nil), items...)
	strTile(own, t.maxEntries, rounds)
	level := make([]*Node, 0, (len(own)+t.maxEntries-1)/t.maxEntries)
	for lo := 0; lo < len(own); lo += t.maxEntries {
		leaf := &Node{leaf: true, items: append([]Item(nil), own[lo:min(lo+t.maxEntries, len(own))]...)}
		leaf.recomputeRect()
		level = append(level, leaf)
	}
	height := 1
	for len(level) > 1 {
		// A node enters the tiling as an Item keyed by its centre and
		// its position in the level, which also finds it again.
		keys := make([]Item, len(level))
		for i, n := range level {
			keys[i] = Item{ID: int64(i), P: n.rect.Center()}
		}
		strTile(keys, t.maxEntries, rounds)
		parents := make([]*Node, 0, (len(keys)+t.maxEntries-1)/t.maxEntries)
		for lo := 0; lo < len(keys); lo += t.maxEntries {
			run := keys[lo:min(lo+t.maxEntries, len(keys))]
			parent := &Node{children: make([]*Node, len(run))}
			for i, k := range run {
				parent.children[i] = level[k.ID]
			}
			parent.recomputeRect()
			parents = append(parents, parent)
		}
		level = parents
		height++
	}
	t.root = level[0]
	t.size = len(items)
	t.height = height
	return t
}

// strTile reorders xs into STR tiles of capacity entries, so that every
// run xs[i·capacity:(i+1)·capacity] is one node's entries: xs is cut into
// slices of ⌈√nodes⌉·capacity entries by rank in x, and each slice into
// runs of capacity entries by rank in y.
func strTile(xs []Item, capacity, rounds int) {
	nodes := (len(xs) + capacity - 1) / capacity
	sliceSize := int(math.Ceil(math.Sqrt(float64(nodes)))) * capacity
	tile(xs, sliceSize, false, rounds)
	for lo := 0; lo < len(xs); lo += sliceSize {
		tile(xs[lo:min(lo+sliceSize, len(xs))], capacity, true, rounds)
	}
}

// tile reorders xs so that each run xs[i·size:(i+1)·size] holds exactly
// the entries of ranks i·size to (i+1)·size-1 under the (coordinate, ID)
// order on the y axis if byY, else on x, in no particular order within
// the run. It selects the middle run boundary by quickselect, then tiles
// each side. A selection that has partitioned rounds times without
// landing sorts the whole segment instead, which settles every boundary
// in it, so an input that defeats the median-of-three pivot costs
// O(n·log n) per selection, not O(n²).
func tile(xs []Item, size int, byY bool, rounds int) {
	for len(xs) > size {
		m := (len(xs) + size - 1) / size / 2 * size
		lo, hi := 0, len(xs)
		for left := rounds; ; left-- {
			if left == 0 {
				slices.SortFunc(xs, func(a, b Item) int { return cmpRank(a, b, byY) })
				return
			}
			p := lo + partition(xs[lo:hi], byY)
			if p == m {
				break
			}
			if p < m {
				lo = p + 1
			} else {
				hi = p
			}
		}
		tile(xs[:m], size, byY, rounds)
		xs = xs[m:]
	}
}

// partition moves a median-of-three pivot to its final rank in xs, with
// no entry ranked above it before it and none below it after it, and
// returns that rank. xs must not be empty.
func partition(xs []Item, byY bool) int {
	n := len(xs)
	a, b, c := 0, n/2, n-1
	if lessRank(&xs[b], &xs[a], byY) {
		xs[a], xs[b] = xs[b], xs[a]
	}
	if lessRank(&xs[c], &xs[b], byY) {
		xs[b], xs[c] = xs[c], xs[b]
		if lessRank(&xs[b], &xs[a], byY) {
			xs[a], xs[b] = xs[b], xs[a]
		}
	}
	xs[0], xs[b] = xs[b], xs[0]
	pivot := xs[0]
	i, j := 1, n-1
	for {
		for i <= j && lessRank(&xs[i], &pivot, byY) {
			i++
		}
		for i <= j && lessRank(&pivot, &xs[j], byY) {
			j--
		}
		if i >= j {
			break
		}
		xs[i], xs[j] = xs[j], xs[i]
		i++
		j--
	}
	xs[0], xs[j] = xs[j], xs[0]
	return j
}

// lessRank orders items by one coordinate, then by ID.
func lessRank(a, b *Item, byY bool) bool {
	ka, kb := a.P.X, b.P.X
	if byY {
		ka, kb = a.P.Y, b.P.Y
	}
	if ka != kb {
		return ka < kb
	}
	return a.ID < b.ID
}

// cmpRank is lessRank as a three-way comparison.
func cmpRank(a, b Item, byY bool) int {
	switch {
	case lessRank(&a, &b, byY):
		return -1
	case lessRank(&b, &a, byY):
		return 1
	}
	return 0
}

// Len returns the number of items in the tree.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels (1 for a tree that is a single leaf).
func (t *Tree) Height() int { return t.height }

// Root returns the root node for custom traversals.
func (t *Tree) Root() *Node { return t.root }

// Bounds returns the bounding rectangle of all items and false when empty.
func (t *Tree) Bounds() (geo.Rect, bool) {
	if t.size == 0 {
		return geo.Rect{}, false
	}
	return t.root.rect, true
}

func (n *Node) recomputeRect() {
	if n.leaf {
		if len(n.items) == 0 {
			n.rect = geo.Rect{}
			return
		}
		r := geo.Rect{Min: n.items[0].P, Max: n.items[0].P}
		for _, it := range n.items[1:] {
			r = r.ExtendPoint(it.P)
		}
		n.rect = r
		return
	}
	if len(n.children) == 0 {
		n.rect = geo.Rect{}
		return
	}
	r := n.children[0].rect
	for _, c := range n.children[1:] {
		r = r.Extend(c.rect)
	}
	n.rect = r
}

// Insert adds an item to the tree.
func (t *Tree) Insert(it Item) {
	left, right := t.insert(t.root, it)
	if right != nil {
		t.root = &Node{children: []*Node{left, right}}
		t.root.recomputeRect()
		t.height++
	} else {
		t.root = left
	}
	t.size++
}

// insert adds it under n and returns the (possibly split) replacement
// node(s). right is nil when no split occurred.
func (t *Tree) insert(n *Node, it Item) (left, right *Node) {
	if n.leaf {
		n.items = append(n.items, it)
		if len(n.items) == 1 {
			n.rect = geo.Rect{Min: it.P, Max: it.P}
		} else {
			n.rect = n.rect.ExtendPoint(it.P)
		}
		if len(n.items) > t.maxEntries {
			a, b := n.split(t.minEntries)
			return a, b
		}
		return n, nil
	}
	child := chooseSubtree(n.children, it.P)
	cl, cr := t.insert(n.children[child], it)
	n.children[child] = cl
	if cr != nil {
		n.children = append(n.children, cr)
	}
	n.recomputeRect()
	if len(n.children) > t.maxEntries {
		a, b := n.split(t.minEntries)
		return a, b
	}
	return n, nil
}

// chooseSubtree picks the child needing the least area enlargement to cover
// p, breaking ties by smaller area (Guttman's ChooseLeaf heuristic).
func chooseSubtree(children []*Node, p geo.Point) int {
	best := 0
	bestEnl := math.Inf(1)
	bestArea := math.Inf(1)
	for i, c := range children {
		enl := c.rect.ExtendPoint(p).Area() - c.rect.Area()
		area := c.rect.Area()
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

func (n *Node) entryCount() int {
	if n.leaf {
		return len(n.items)
	}
	return len(n.children)
}

// split performs Guttman's quadratic split, returning two nodes.
func (n *Node) split(minEntries int) (*Node, *Node) {
	rects := n.entryRects()
	seedA, seedB := quadraticSeeds(rects)

	groupA := []int{seedA}
	groupB := []int{seedB}
	rectA, rectB := rects[seedA], rects[seedB]
	remaining := make([]int, 0, len(rects)-2)
	for i := range rects {
		if i != seedA && i != seedB {
			remaining = append(remaining, i)
		}
	}
	total := len(rects)
	for len(remaining) > 0 {
		// Force-assign if one group must take all the rest to reach min.
		if len(groupA)+len(remaining) == minEntries {
			groupA = append(groupA, remaining...)
			for _, i := range remaining {
				rectA = rectA.Extend(rects[i])
			}
			break
		}
		if len(groupB)+len(remaining) == minEntries {
			groupB = append(groupB, remaining...)
			for _, i := range remaining {
				rectB = rectB.Extend(rects[i])
			}
			break
		}
		// Pick the entry with the greatest preference for one group.
		bestIdx, bestDiff, bestPos := -1, -1.0, 0
		for pos, i := range remaining {
			dA := rectA.Extend(rects[i]).Area() - rectA.Area()
			dB := rectB.Extend(rects[i]).Area() - rectB.Area()
			diff := math.Abs(dA - dB)
			if diff > bestDiff {
				bestDiff, bestIdx, bestPos = diff, i, pos
			}
		}
		remaining = append(remaining[:bestPos], remaining[bestPos+1:]...)
		dA := rectA.Extend(rects[bestIdx]).Area() - rectA.Area()
		dB := rectB.Extend(rects[bestIdx]).Area() - rectB.Area()
		toA := dA < dB
		if dA == dB {
			toA = rectA.Area() < rectB.Area() ||
				(rectA.Area() == rectB.Area() && len(groupA) < len(groupB))
		}
		if toA {
			groupA = append(groupA, bestIdx)
			rectA = rectA.Extend(rects[bestIdx])
		} else {
			groupB = append(groupB, bestIdx)
			rectB = rectB.Extend(rects[bestIdx])
		}
	}
	if len(groupA)+len(groupB) != total {
		panic("rtree: split lost entries")
	}
	return n.subset(groupA), n.subset(groupB)
}

func (n *Node) entryRects() []geo.Rect {
	if n.leaf {
		rects := make([]geo.Rect, len(n.items))
		for i, it := range n.items {
			rects[i] = geo.Rect{Min: it.P, Max: it.P}
		}
		return rects
	}
	rects := make([]geo.Rect, len(n.children))
	for i, c := range n.children {
		rects[i] = c.rect
	}
	return rects
}

func (n *Node) subset(idx []int) *Node {
	out := &Node{leaf: n.leaf}
	if n.leaf {
		out.items = make([]Item, 0, len(idx))
		for _, i := range idx {
			out.items = append(out.items, n.items[i])
		}
	} else {
		out.children = make([]*Node, 0, len(idx))
		for _, i := range idx {
			out.children = append(out.children, n.children[i])
		}
	}
	out.recomputeRect()
	return out
}

// quadraticSeeds picks the pair of rectangles wasting the most area when
// covered together.
func quadraticSeeds(rects []geo.Rect) (int, int) {
	bestWaste := math.Inf(-1)
	a, b := 0, 1
	for i := 0; i < len(rects); i++ {
		for j := i + 1; j < len(rects); j++ {
			waste := rects[i].Extend(rects[j]).Area() - rects[i].Area() - rects[j].Area()
			if waste > bestWaste {
				bestWaste, a, b = waste, i, j
			}
		}
	}
	return a, b
}

// Delete removes the item (matched by ID and point). It reports whether the
// item was found. Underflowing nodes are dissolved and their remaining items
// reinserted (the "condense tree" step), keeping the tree balanced under a
// dynamic database.
func (t *Tree) Delete(it Item) bool {
	var orphans []Item
	found := t.delete(t.root, it, &orphans)
	if !found {
		return false
	}
	t.size--
	t.root.recomputeRect()
	// Shrink the root while it has a single internal child.
	for !t.root.leaf && len(t.root.children) == 1 {
		t.root = t.root.children[0]
		t.height--
	}
	if !t.root.leaf && len(t.root.children) == 0 {
		t.root = &Node{leaf: true}
		t.height = 1
	}
	t.size -= len(orphans)
	for _, o := range orphans {
		t.Insert(o)
	}
	return true
}

// delete removes it from the subtree rooted at n, dissolving underflowing
// children into orphans for reinsertion.
func (t *Tree) delete(n *Node, it Item, orphans *[]Item) bool {
	if n.leaf {
		for i, li := range n.items {
			if li.ID == it.ID && li.P == it.P {
				n.items = append(n.items[:i], n.items[i+1:]...)
				n.recomputeRect()
				return true
			}
		}
		return false
	}
	for i, c := range n.children {
		if !c.rect.Contains(it.P) {
			continue
		}
		if !t.delete(c, it, orphans) {
			continue
		}
		if c.entryCount() < t.minEntries {
			n.children = append(n.children[:i], n.children[i+1:]...)
			collectItems(c, orphans)
		}
		n.recomputeRect()
		return true
	}
	return false
}

func collectItems(n *Node, out *[]Item) {
	if n.leaf {
		*out = append(*out, n.items...)
		return
	}
	for _, c := range n.children {
		collectItems(c, out)
	}
}

// Search calls fn for every item whose point lies inside r (boundary
// inclusive). Returning false from fn stops the search early.
func (t *Tree) Search(r geo.Rect, fn func(Item) bool) {
	if t.size == 0 {
		return
	}
	search(t.root, r, fn)
}

func search(n *Node, r geo.Rect, fn func(Item) bool) bool {
	if !n.rect.Intersects(r) {
		return true
	}
	if n.leaf {
		for _, it := range n.items {
			if r.Contains(it.P) {
				if !fn(it) {
					return false
				}
			}
		}
		return true
	}
	for _, c := range n.children {
		if !search(c, r, fn) {
			return false
		}
	}
	return true
}

// All calls fn for every item in the tree.
func (t *Tree) All(fn func(Item) bool) {
	if t.size == 0 {
		return
	}
	var walk func(n *Node) bool
	walk = func(n *Node) bool {
		if n.leaf {
			for _, it := range n.items {
				if !fn(it) {
					return false
				}
			}
			return true
		}
		for _, c := range n.children {
			if !walk(c) {
				return false
			}
		}
		return true
	}
	walk(t.root)
}

// Neighbor is a kNN result: an item and its distance to the query point.
type Neighbor struct {
	Item Item
	Dist float64
}

// NearestK returns the k items nearest to p in ascending distance order
// (fewer if the tree holds fewer than k items). Ties are broken by item ID
// so results are deterministic.
func (t *Tree) NearestK(p geo.Point, k int) []Neighbor {
	if k <= 0 || t.size == 0 {
		return nil
	}
	pq := &entryQueue{}
	heap.Push(pq, queueEntry{dist: t.root.rect.MinDist(p), node: t.root})
	var out []Neighbor
	for pq.Len() > 0 && len(out) < k {
		e := heap.Pop(pq).(queueEntry)
		switch {
		case e.node != nil && e.node.leaf:
			for _, it := range e.node.items {
				heap.Push(pq, queueEntry{dist: p.Dist(it.P), item: it, isItem: true})
			}
		case e.node != nil:
			for _, c := range e.node.children {
				heap.Push(pq, queueEntry{dist: c.rect.MinDist(p), node: c})
			}
		default:
			out = append(out, Neighbor{Item: e.item, Dist: e.dist})
		}
	}
	return out
}

type queueEntry struct {
	dist   float64
	node   *Node
	item   Item
	isItem bool
}

type entryQueue []queueEntry

func (q entryQueue) Len() int { return len(q) }
func (q entryQueue) Less(i, j int) bool {
	if q[i].dist != q[j].dist {
		return q[i].dist < q[j].dist
	}
	// Tie-break: expand nodes before emitting items at the same distance so
	// every tied item is in the queue, then order tied items by ID. This
	// makes results deterministic.
	if q[i].isItem != q[j].isItem {
		return !q[i].isItem
	}
	return q[i].item.ID < q[j].item.ID
}
func (q entryQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *entryQueue) Push(x interface{}) { *q = append(*q, x.(queueEntry)) }
func (q *entryQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// CheckInvariants validates structural invariants; it is exported for tests.
func (t *Tree) CheckInvariants() error {
	count := 0
	var walk func(n *Node, depth int) error
	maxDepth := -1
	walk = func(n *Node, depth int) error {
		if n.leaf {
			if maxDepth == -1 {
				maxDepth = depth
			}
			if depth != maxDepth {
				return fmt.Errorf("rtree: leaves at different depths (%d vs %d)", depth, maxDepth)
			}
			count += len(n.items)
			for _, it := range n.items {
				if len(n.items) > 0 && !n.rect.Contains(it.P) {
					return fmt.Errorf("rtree: leaf rect %v misses item %v", n.rect, it.P)
				}
			}
			return nil
		}
		if len(n.children) == 0 {
			return fmt.Errorf("rtree: internal node with no children")
		}
		for _, c := range n.children {
			if !n.rect.ContainsRect(c.rect) {
				return fmt.Errorf("rtree: node rect %v misses child %v", n.rect, c.rect)
			}
			if err := walk(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 0); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("rtree: size %d but counted %d items", t.size, count)
	}
	return nil
}
