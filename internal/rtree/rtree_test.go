package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"ppgnn/internal/geo"
)

func randomItems(rng *rand.Rand, n int) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{ID: int64(i), P: geo.Point{X: rng.Float64(), Y: rng.Float64()}}
	}
	return items
}

// linearNearestK is the brute-force reference for kNN.
func linearNearestK(items []Item, p geo.Point, k int) []Neighbor {
	out := make([]Neighbor, 0, len(items))
	for _, it := range items {
		out = append(out, Neighbor{Item: it, Dist: p.Dist(it.P)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].Item.ID < out[j].Item.ID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func TestEmptyTree(t *testing.T) {
	tr := New(0)
	if tr.Len() != 0 {
		t.Fatalf("Len = %d, want 0", tr.Len())
	}
	if got := tr.NearestK(geo.Point{}, 5); got != nil {
		t.Fatalf("NearestK on empty = %v, want nil", got)
	}
	if _, ok := tr.Bounds(); ok {
		t.Fatal("Bounds on empty reported ok")
	}
	tr.Search(geo.UnitRect, func(Item) bool { t.Fatal("search hit on empty tree"); return true })
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertAndInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tr := New(8)
	items := randomItems(rng, 500)
	for i, it := range items {
		tr.Insert(it)
		if i%50 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after %d inserts: %v", i+1, err)
			}
		}
	}
	if tr.Len() != len(items) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(items))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	tr.All(func(it Item) bool { seen[it.ID] = true; return true })
	if len(seen) != len(items) {
		t.Fatalf("All visited %d distinct items, want %d", len(seen), len(items))
	}
}

func TestBulkLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 5, 33, 100, 5000} {
		items := randomItems(rng, n)
		tr := Bulk(items, 16)
		if tr.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, tr.Len())
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestNearestKMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	items := randomItems(rng, 2000)
	bulk := Bulk(items, 16)
	incr := New(8)
	for _, it := range items {
		incr.Insert(it)
	}
	for trial := 0; trial < 50; trial++ {
		q := geo.Point{X: rng.Float64(), Y: rng.Float64()}
		k := 1 + rng.Intn(20)
		want := linearNearestK(items, q, k)
		for name, tr := range map[string]*Tree{"bulk": bulk, "incremental": incr} {
			got := tr.NearestK(q, k)
			if len(got) != len(want) {
				t.Fatalf("%s: NearestK returned %d items, want %d", name, len(got), len(want))
			}
			for i := range got {
				if got[i].Item.ID != want[i].Item.ID {
					t.Fatalf("%s trial %d: result[%d] = id %d (d=%v), want id %d (d=%v)",
						name, trial, i, got[i].Item.ID, got[i].Dist, want[i].Item.ID, want[i].Dist)
				}
			}
		}
	}
}

func TestNearestKMoreThanSize(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	items := randomItems(rng, 10)
	tr := Bulk(items, 4)
	got := tr.NearestK(geo.Point{X: 0.5, Y: 0.5}, 25)
	if len(got) != 10 {
		t.Fatalf("NearestK(k>size) returned %d, want 10", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Dist < got[i-1].Dist {
			t.Fatal("results not sorted by distance")
		}
	}
}

func TestSearchWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	items := randomItems(rng, 1000)
	tr := Bulk(items, 16)
	win := geo.Rect{Min: geo.Point{X: 0.25, Y: 0.25}, Max: geo.Point{X: 0.5, Y: 0.75}}
	want := map[int64]bool{}
	for _, it := range items {
		if win.Contains(it.P) {
			want[it.ID] = true
		}
	}
	got := map[int64]bool{}
	tr.Search(win, func(it Item) bool { got[it.ID] = true; return true })
	if len(got) != len(want) {
		t.Fatalf("window search found %d, want %d", len(got), len(want))
	}
	for id := range want {
		if !got[id] {
			t.Fatalf("window search missed id %d", id)
		}
	}
}

func TestSearchEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tr := Bulk(randomItems(rng, 100), 8)
	count := 0
	tr.Search(geo.UnitRect, func(Item) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop visited %d items, want 5", count)
	}
}

func TestDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	items := randomItems(rng, 400)
	tr := Bulk(items, 8)
	perm := rng.Perm(len(items))
	for i, pi := range perm {
		if !tr.Delete(items[pi]) {
			t.Fatalf("Delete(%v) not found", items[pi])
		}
		if tr.Len() != len(items)-i-1 {
			t.Fatalf("Len = %d after %d deletes", tr.Len(), i+1)
		}
		if i%40 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after %d deletes: %v", i+1, err)
			}
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting all", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteMissing(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tr := Bulk(randomItems(rng, 50), 8)
	if tr.Delete(Item{ID: 9999, P: geo.Point{X: 0.123, Y: 0.456}}) {
		t.Fatal("Delete of missing item reported success")
	}
	if tr.Len() != 50 {
		t.Fatalf("Len changed to %d", tr.Len())
	}
}

func TestDeleteThenQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	items := randomItems(rng, 300)
	tr := Bulk(items, 8)
	// Delete every third item.
	var remaining []Item
	for i, it := range items {
		if i%3 == 0 {
			if !tr.Delete(it) {
				t.Fatalf("delete %d failed", i)
			}
		} else {
			remaining = append(remaining, it)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	q := geo.Point{X: 0.5, Y: 0.5}
	want := linearNearestK(remaining, q, 10)
	got := tr.NearestK(q, 10)
	for i := range want {
		if got[i].Item.ID != want[i].Item.ID {
			t.Fatalf("post-delete kNN mismatch at %d: got %d want %d", i, got[i].Item.ID, want[i].Item.ID)
		}
	}
}

func TestDuplicatePoints(t *testing.T) {
	tr := New(4)
	p := geo.Point{X: 0.5, Y: 0.5}
	for i := 0; i < 20; i++ {
		tr.Insert(Item{ID: int64(i), P: p})
	}
	if tr.Len() != 20 {
		t.Fatalf("Len = %d, want 20", tr.Len())
	}
	got := tr.NearestK(p, 20)
	if len(got) != 20 {
		t.Fatalf("NearestK returned %d, want 20", len(got))
	}
	// Deterministic tie-breaking by ID.
	for i := range got {
		if got[i].Item.ID != int64(i) {
			t.Fatalf("tie-break order wrong at %d: %d", i, got[i].Item.ID)
		}
	}
	if !tr.Delete(Item{ID: 7, P: p}) {
		t.Fatal("delete duplicate-point item failed")
	}
	if tr.Len() != 19 {
		t.Fatalf("Len = %d after delete", tr.Len())
	}
}

func TestMixedInsertDeleteRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tr := New(8)
	alive := map[int64]Item{}
	nextID := int64(0)
	for step := 0; step < 3000; step++ {
		if len(alive) == 0 || rng.Float64() < 0.6 {
			it := Item{ID: nextID, P: geo.Point{X: rng.Float64(), Y: rng.Float64()}}
			nextID++
			tr.Insert(it)
			alive[it.ID] = it
		} else {
			// Delete a random alive item.
			var victim Item
			for _, it := range alive {
				victim = it
				break
			}
			if !tr.Delete(victim) {
				t.Fatalf("step %d: delete of live item %v failed", step, victim)
			}
			delete(alive, victim.ID)
		}
		if step%250 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if tr.Len() != len(alive) {
				t.Fatalf("step %d: Len=%d alive=%d", step, tr.Len(), len(alive))
			}
		}
	}
	// Final kNN cross-check.
	var items []Item
	for _, it := range alive {
		items = append(items, it)
	}
	q := geo.Point{X: 0.3, Y: 0.6}
	want := linearNearestK(items, q, 15)
	got := tr.NearestK(q, 15)
	for i := range want {
		if got[i].Item.ID != want[i].Item.ID {
			t.Fatalf("final kNN mismatch at %d", i)
		}
	}
}

func TestBounds(t *testing.T) {
	tr := New(4)
	tr.Insert(Item{ID: 1, P: geo.Point{X: 0.2, Y: 0.3}})
	tr.Insert(Item{ID: 2, P: geo.Point{X: 0.8, Y: 0.1}})
	b, ok := tr.Bounds()
	if !ok {
		t.Fatal("Bounds not ok")
	}
	want := geo.Rect{Min: geo.Point{X: 0.2, Y: 0.1}, Max: geo.Point{X: 0.8, Y: 0.3}}
	if b != want {
		t.Fatalf("Bounds = %v, want %v", b, want)
	}
}

func TestHeightGrowth(t *testing.T) {
	tr := New(4)
	if tr.Height() != 1 {
		t.Fatalf("empty height = %d", tr.Height())
	}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 200; i++ {
		tr.Insert(Item{ID: int64(i), P: geo.Point{X: rng.Float64(), Y: rng.Float64()}})
	}
	if tr.Height() < 3 {
		t.Fatalf("height = %d after 200 inserts with fanout 4, expected >= 3", tr.Height())
	}
}

// clampedItems draws n points around 48 Gaussian centres and clamps
// them to the unit square, so that thousands tie at x = 0, y = 0 and the
// other edges, as a clustered POI database does at its borders.
func clampedItems(rng *rand.Rand, n int) []Item {
	centres := randomItems(rng, 48)
	items := make([]Item, n)
	for i := range items {
		c := centres[rng.Intn(len(centres))].P
		p := geo.Point{X: c.X + rng.NormFloat64()*0.1, Y: c.Y + rng.NormFloat64()*0.1}
		items[i] = Item{ID: int64(i), P: geo.UnitRect.Clamp(p)}
	}
	return items
}

// BenchmarkBulkLoad builds the paper's 62,556-POI scale and a
// 1,000,000-POI clustered database with clamped ties.
func BenchmarkBulkLoad(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		name  string
		items []Item
	}{
		{"uniform_62556", randomItems(rng, 62556)},
		{"clamped_1000000", clampedItems(rng, 1000000)},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Bulk(c.items, DefaultMaxEntries)
			}
		})
	}
}

func BenchmarkNearestK(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tr := Bulk(randomItems(rng, 62556), DefaultMaxEntries)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := geo.Point{X: rng.Float64(), Y: rng.Float64()}
		tr.NearestK(q, 8)
	}
}
