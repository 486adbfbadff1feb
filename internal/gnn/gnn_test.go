package gnn

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"

	"ppgnn/internal/dataset"
	"ppgnn/internal/dummy"
	"ppgnn/internal/geo"
	"ppgnn/internal/partition"
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

// BenchmarkMBMSearch times one kGNN candidate query the way Algorithm 2
// issues them: 100k clustered POIs, and 8-point queries taken from the δ'
// candidate list of an n=8, d=25, δ=100 group (uniform dummies).
func BenchmarkMBMSearch(b *testing.B) {
	items := dataset.Synthetic(1, 100000)
	mbm := &MBM{Tree: rtree.Bulk(items, rtree.DefaultMaxEntries), Agg: Sum}
	cands := groupCandidates(rand.New(rand.NewSource(1)), 8, 25, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = mbm.Search(cands[i%len(cands)], 8)
	}
}

// benchSink keeps benchmarked results live.
var benchSink []Result

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

// groupCandidates draws n real locations, hides each in a d-point uniform
// location set, and returns the δ' candidate queries the LSP would build
// from them.
func groupCandidates(rng *rand.Rand, n, d, delta int) [][]geo.Point {
	params, err := partition.Solve(n, d, delta)
	if err != nil {
		panic(err)
	}
	sets := make([][]geo.Point, n)
	for u := range sets {
		at := geo.Point{X: 0.3 + 0.4*rng.Float64(), Y: 0.3 + 0.4*rng.Float64()}
		sets[u] = dummy.Uniform{}.LocationSet(rng, at, d, rng.Intn(d), geo.UnitRect)
	}
	cands, err := params.Candidates(sets)
	if err != nil {
		panic(err)
	}
	return cands
}

// referenceSearch is the single-queue MBM the typed kernel replaced: nodes
// and POIs share one container/heap queue ordered by (bound,
// node-before-POI, ID), and the k-th POI popped ends the search. It is kept
// as the differential oracle for SearchBounded's results and scanned count.
func referenceSearch(m *MBM, query []geo.Point, k int, maxCost float64) ([]Result, int) {
	if k <= 0 || len(query) == 0 || m.Tree.Len() == 0 {
		return nil, 0
	}
	queryMBR := geo.RectOf(query...)
	pq := &refQueue{}
	root := m.Tree.Root()
	heap.Push(pq, refEntry{bound: m.Agg.nodeLowerBound(root.Rect(), query, queryMBR), node: root})
	scanned := 0
	var out []Result
	for pq.Len() > 0 && len(out) < k {
		e := heap.Pop(pq).(refEntry)
		if e.bound > maxCost {
			break
		}
		switch {
		case e.node != nil && e.node.IsLeaf():
			for _, it := range e.node.Items() {
				scanned++
				heap.Push(pq, refEntry{bound: m.Agg.Cost(it.P, query), item: it, isItem: true})
			}
		case e.node != nil:
			for _, c := range e.node.Children() {
				heap.Push(pq, refEntry{bound: m.Agg.nodeLowerBound(c.Rect(), query, queryMBR), node: c})
			}
		default:
			out = append(out, Result{Item: e.item, Cost: e.bound})
		}
	}
	return out, scanned
}

type refEntry struct {
	bound  float64
	node   *rtree.Node
	item   rtree.Item
	isItem bool
}

type refQueue []refEntry

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].bound != q[j].bound {
		return q[i].bound < q[j].bound
	}
	if q[i].isItem != q[j].isItem {
		return !q[i].isItem
	}
	return q[i].item.ID < q[j].item.ID
}
func (q refQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x interface{}) { *q = append(*q, x.(refEntry)) }
func (q *refQueue) Pop() interface{} {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// churnedTree builds a dynamic tree by insertion (quadratic splits) and
// then applies 500 random Insert/Delete calls, returning it with the items
// it finally holds.
func churnedTree(rng *rand.Rand, n, maxEntries int) (*rtree.Tree, []rtree.Item) {
	tree := rtree.New(maxEntries)
	live := randomItems(rng, n)
	for _, it := range live {
		tree.Insert(it)
	}
	nextID := int64(n)
	for op := 0; op < 500; op++ {
		if rng.Intn(2) == 0 && len(live) > 0 {
			i := rng.Intn(len(live))
			if !tree.Delete(live[i]) {
				panic("churnedTree: delete of a live item failed")
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		it := rtree.Item{ID: nextID, P: geo.Point{X: rng.Float64(), Y: rng.Float64()}}
		nextID++
		tree.Insert(it)
		live = append(live, it)
	}
	return tree, live
}

// withDuplicates adds, for every fifth item, a copy at the same location
// under a fresh ID, so many ranks tie on cost and only IDs order them.
func withDuplicates(items []rtree.Item) []rtree.Item {
	out := append([]rtree.Item(nil), items...)
	next := int64(len(items)) * 2
	for i := 0; i < len(items); i += 5 {
		out = append(out, rtree.Item{ID: next, P: items[i].P})
		next++
	}
	return out
}

// TestSearchBoundedMatchesReference is the differential test of the typed
// kernel: on STR and insert-built trees, with tied duplicate locations,
// for every aggregate, k from 1 past the database size, and unbounded and
// finite cutoffs, SearchBounded returns exactly the reference queue's
// results and scanned count, and exactly BruteForce's results.
func TestSearchBoundedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	type db struct {
		name  string
		tree  *rtree.Tree
		items []rtree.Item
	}
	var dbs []db
	for _, fanout := range []int{4, 16, rtree.DefaultMaxEntries} {
		items := withDuplicates(randomItems(rng, 1500))
		dbs = append(dbs, db{"str", rtree.Bulk(items, fanout), items})
	}
	for _, fanout := range []int{4, 9} {
		tree, items := churnedTree(rng, 800, fanout)
		if err := tree.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		dbs = append(dbs, db{"churned", tree, withDuplicates(items)})
		// Duplicates enter the churned tree by insertion too.
		for _, it := range dbs[len(dbs)-1].items[len(items):] {
			tree.Insert(it)
		}
	}
	for _, d := range dbs {
		for _, agg := range []Aggregate{Sum, Max, Min} {
			mbm := &MBM{Tree: d.tree, Agg: agg}
			for trial := 0; trial < 6; trial++ {
				q := randomQuery(rng, 1+rng.Intn(8))
				ranked := (&BruteForce{Items: d.items, Agg: agg}).Search(q, len(d.items))
				for _, k := range []int{1, 1 + rng.Intn(20), d.tree.Len(), d.tree.Len() + 7} {
					full := ranked[:min(k, len(ranked))]
					kth := full[len(full)-1].Cost
					cutoffs := []float64{math.Inf(1), kth, math.Nextafter(kth, 0), full[0].Cost * (1 + rng.Float64()), full[0].Cost / 2}
					for _, maxCost := range cutoffs {
						got, scanned := mbm.SearchBounded(q, k, maxCost)
						ref, refScanned := referenceSearch(mbm, q, k, maxCost)
						want := full
						for len(want) > 0 && want[len(want)-1].Cost > maxCost {
							want = want[:len(want)-1]
						}
						if scanned != refScanned {
							t.Fatalf("%s %v k=%d cutoff=%v: scanned %d POIs, reference %d", d.name, agg, k, maxCost, scanned, refScanned)
						}
						if len(got) != len(ref) || len(got) != len(want) {
							t.Fatalf("%s %v k=%d cutoff=%v: %d results, reference %d, brute force %d", d.name, agg, k, maxCost, len(got), len(ref), len(want))
						}
						for i := range got {
							if got[i] != ref[i] || got[i] != want[i] {
								t.Fatalf("%s %v k=%d cutoff=%v rank %d: got %+v, reference %+v, brute force %+v", d.name, agg, k, maxCost, i, got[i], ref[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestSearchAllocsBounded pins the kernel's allocation profile: a search
// allocates its result slots and its node queue, never one object per
// scanned POI, so the bound holds on a database 16 times larger.
func TestSearchAllocsBounded(t *testing.T) {
	cands := groupCandidates(rand.New(rand.NewSource(3)), 8, 25, 100)
	for _, n := range []int{5000, 80000} {
		mbm := &MBM{Tree: rtree.Bulk(dataset.Synthetic(2, n), rtree.DefaultMaxEntries), Agg: Sum}
		scanned := 0
		for _, q := range cands {
			_, s := mbm.SearchBounded(q, 8, math.Inf(1))
			scanned += s
		}
		i := 0
		allocs := testing.AllocsPerRun(len(cands), func() {
			mbm.Search(cands[i%len(cands)], 8)
			i++
		})
		if perQuery := scanned / len(cands); perQuery < 100 {
			t.Fatalf("n=%d: only %d POIs scanned per query; the bound below says nothing", n, perQuery)
		}
		if allocs > maxSearchAllocs {
			t.Fatalf("n=%d: %.1f allocations per search, want <= %d (%d POIs scanned per query)", n, allocs, maxSearchAllocs, scanned/len(cands))
		}
	}
}

// maxSearchAllocs bounds one search's heap allocations: the k result slots,
// the node queue, and two doublings of it for frontiers past its start.
const maxSearchAllocs = 4
