package rtree

import (
	"cmp"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ppgnn/internal/geo"
)

// referenceBulk is STR packing by full sorts, the tiling Bulk must
// reproduce: items sorted by (x, ID) and cut into slices of
// ⌈√leaves⌉·capacity, each slice sorted by (y, ID) and cut into leaves;
// each upper level the same over (centre, position in the level).
func referenceBulk(items []Item, capacity int) *Node {
	if len(items) == 0 {
		return &Node{leaf: true}
	}
	byX := func(a, b Item) int { return cmp.Or(cmp.Compare(a.P.X, b.P.X), cmp.Compare(a.ID, b.ID)) }
	byY := func(a, b Item) int { return cmp.Or(cmp.Compare(a.P.Y, b.P.Y), cmp.Compare(a.ID, b.ID)) }
	runs := func(xs []Item) [][]Item {
		slices.SortFunc(xs, byX)
		sliceSize := int(math.Ceil(math.Sqrt(float64((len(xs)+capacity-1)/capacity)))) * capacity
		var out [][]Item
		for s := 0; s < len(xs); s += sliceSize {
			slice := xs[s:min(s+sliceSize, len(xs))]
			slices.SortFunc(slice, byY)
			for l := 0; l < len(slice); l += capacity {
				out = append(out, slice[l:min(l+capacity, len(slice))])
			}
		}
		return out
	}
	var level []*Node
	for _, run := range runs(append([]Item(nil), items...)) {
		leaf := &Node{leaf: true, items: run}
		leaf.recomputeRect()
		level = append(level, leaf)
	}
	for len(level) > 1 {
		keys := make([]Item, len(level))
		for i, n := range level {
			c := geo.Point{X: (n.rect.Min.X + n.rect.Max.X) / 2, Y: (n.rect.Min.Y + n.rect.Max.Y) / 2}
			keys[i] = Item{ID: int64(i), P: c}
		}
		var parents []*Node
		for _, run := range runs(keys) {
			p := &Node{}
			for _, k := range run {
				p.children = append(p.children, level[k.ID])
			}
			p.recomputeRect()
			parents = append(parents, p)
		}
		level = parents
	}
	return level[0]
}

// canonical hashes a subtree from its rect at every node, each leaf's
// item IDs and each node's children, the last two in sorted order: two
// trees hash alike iff (but for a 64-bit collision) they have the same
// leaf item sets and the same rects at every level, whatever the entry
// order inside a node.
func canonical(n *Node) uint64 {
	var keys []uint64
	if n.leaf {
		for _, it := range n.items {
			keys = append(keys, uint64(it.ID))
		}
	} else {
		for _, c := range n.children {
			keys = append(keys, canonical(c))
		}
	}
	slices.Sort(keys)
	h := fnv.New64a()
	buf := make([]byte, 0, 8*(5+len(keys)))
	if n.leaf {
		buf = append(buf, 1)
	}
	for _, f := range []float64{n.rect.Min.X, n.rect.Min.Y, n.rect.Max.X, n.rect.Max.Y} {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
	}
	for _, k := range keys {
		buf = binary.LittleEndian.AppendUint64(buf, k)
	}
	h.Write(buf)
	return h.Sum64()
}

// bulkShapes returns n items under each coordinate set and input order
// that stresses the selection: distinct coordinates, a 16-value alphabet
// (ties everywhere) and one point for all; random, sorted, reversed and
// organ-pipe orders. IDs are a permutation, so ID order is not input
// order.
func bulkShapes(rng *rand.Rand, n int) map[string][]Item {
	coords := map[string]func() float64{
		"distinct":   rng.Float64,
		"alphabet16": func() float64 { return float64(rng.Intn(16)) / 15 },
	}
	out := map[string][]Item{}
	for cname, draw := range coords {
		base := make([]Item, n)
		for i, id := range rng.Perm(n) {
			base[i] = Item{ID: int64(id), P: geo.Point{X: draw(), Y: draw()}}
		}
		sorted := slices.Clone(base)
		slices.SortFunc(sorted, func(a, b Item) int {
			return cmp.Or(cmp.Compare(a.P.X, b.P.X), cmp.Compare(a.P.Y, b.P.Y))
		})
		reversed := slices.Clone(sorted)
		slices.Reverse(reversed)
		pipe := make([]Item, 0, n)
		for i := 0; i < n; i += 2 {
			pipe = append(pipe, sorted[i])
		}
		for i := n - 1 - n%2; i > 0; i -= 2 {
			pipe = append(pipe, sorted[i])
		}
		out[cname+"/random"] = base
		out[cname+"/sorted"] = sorted
		out[cname+"/reversed"] = reversed
		out[cname+"/organpipe"] = pipe
	}
	equal := make([]Item, n)
	for i, id := range rng.Perm(n) {
		equal[i] = Item{ID: int64(id), P: geo.Point{X: 0.5, Y: 0.5}}
	}
	out["allequal"] = equal
	return out
}

// TestBulkMatchesReferenceSTR pins the rank-selection tiling to STR by
// full sorts: the same leaf item sets and rects at every level, with the
// selection's normal round budget and with none, which sends every
// selection to its sorting fallback.
func TestBulkMatchesReferenceSTR(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{0, 1, 31, 32, 33, 1000, 5000, 62556} {
		for shape, items := range bulkShapes(rng, n) {
			if len(items) != n {
				t.Fatalf("%s n=%d: shape has %d items", shape, n, len(items))
			}
			for _, fanout := range []int{4, 16, 32} {
				want := canonical(referenceBulk(items, fanout))
				in := slices.Clone(items)
				for name, tr := range map[string]*Tree{"Bulk": Bulk(in, fanout), "no rounds": bulk(in, fanout, 0)} {
					if !slices.Equal(in, items) {
						t.Fatalf("%s n=%d: %s modified its input", shape, n, name)
					}
					if err := tr.CheckInvariants(); err != nil {
						t.Fatalf("%s n=%d fanout=%d %s: %v", shape, n, fanout, name, err)
					}
					if got := canonical(tr.root); got != want {
						t.Fatalf("%s n=%d fanout=%d %s: tree differs from reference STR", shape, n, fanout, name)
					}
				}
			}
		}
	}
}

// FuzzBulk builds trees over points from an 8×8 alphabet, so ties are
// common, and checks the invariants, the STR rank property between
// adjacent slices and leaves, and kNN against a linear scan.
func FuzzBulk(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(0))
	f.Add(make([]byte, 100), uint8(28))
	f.Add([]byte(strings.Repeat("\x00\x3f\x07\x38", 300)), uint8(12))
	f.Fuzz(func(t *testing.T, data []byte, fan uint8) {
		if len(data) > 2000 {
			data = data[:2000]
		}
		fanout := 4 + int(fan)%29
		items := make([]Item, len(data))
		for i, b := range data {
			items[i] = Item{ID: int64(i), P: geo.Point{X: float64(b&7) / 7, Y: float64(b>>3&7) / 7}}
		}
		tr := Bulk(items, fanout)
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}

		tiled := slices.Clone(items)
		strTile(tiled, fanout, 2*bits.Len(uint(len(tiled))))
		sliceSize := int(math.Ceil(math.Sqrt(float64((len(tiled)+fanout-1)/fanout)))) * fanout
		// ranked checks that every entry of tiled[lo:mid] ranks below
		// every entry of tiled[mid:hi].
		ranked := func(lo, mid, hi int, byY bool) {
			top, bottom := tiled[lo], tiled[mid]
			for _, it := range tiled[lo:mid] {
				if lessRank(&top, &it, byY) {
					top = it
				}
			}
			for _, it := range tiled[mid:hi] {
				if lessRank(&it, &bottom, byY) {
					bottom = it
				}
			}
			if !lessRank(&top, &bottom, byY) {
				t.Fatalf("rank order broken at %d (byY=%v): %v not below %v", mid, byY, top, bottom)
			}
		}
		for s := 0; s < len(tiled); s += sliceSize {
			end := min(s+sliceSize, len(tiled))
			if end < len(tiled) {
				ranked(s, end, min(end+sliceSize, len(tiled)), false)
			}
			for l := s + fanout; l < end; l += fanout {
				ranked(l-fanout, l, min(l+fanout, end), true)
			}
		}

		for q := 0; q < 3 && q < len(data); q++ {
			p := geo.Point{X: float64(data[q]&15) / 15, Y: float64(data[q]>>4) / 15}
			k := 1 + int(data[q])%10
			want := linearNearestK(items, p, k)
			got := tr.NearestK(p, k)
			if len(got) != len(want) {
				t.Fatalf("NearestK(%v, %d) returned %d, want %d", p, k, len(got), len(want))
			}
			for i := range want {
				if got[i].Item.ID != want[i].Item.ID {
					t.Fatalf("NearestK(%v, %d)[%d] = %d, want %d", p, k, i, got[i].Item.ID, want[i].Item.ID)
				}
			}
		}
	})
}
