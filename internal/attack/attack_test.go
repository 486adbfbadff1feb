package attack

import (
	"math"
	"math/rand"
	"testing"

	"ppgnn/internal/dataset"
	"ppgnn/internal/dummy"
	"ppgnn/internal/geo"
	"ppgnn/internal/gnn"
	"ppgnn/internal/partition"
	"ppgnn/internal/rtree"
)

// Independent dummies per query: after a handful of queries, the
// intersection attack isolates the real location.
func TestIntersectionBreaksIndependentDummies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	real := geo.Point{X: 0.37, Y: 0.61}
	const d, queries = 25, 5
	var sets [][]geo.Point
	for q := 0; q < queries; q++ {
		pos := rng.Intn(d)
		sets = append(sets, dummy.Uniform{}.LocationSet(rng, real, d, pos, geo.UnitRect))
	}
	got := Intersection(sets, 1e-9)
	if len(got) != 1 {
		t.Fatalf("intersection left %d candidates, want exactly the real location", len(got))
	}
	if got[0] != real {
		t.Fatalf("intersection found %v, real is %v", got[0], real)
	}
}

// Reusing one cached location set across queries defeats the intersection
// attack: the anonymity set never shrinks.
func TestCachedLocationSetResists(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	real := geo.Point{X: 0.5, Y: 0.5}
	const d = 25
	cached := dummy.Uniform{}.LocationSet(rng, real, d, 7, geo.UnitRect)
	sets := [][]geo.Point{cached, cached, cached, cached, cached}
	got := Intersection(sets, 1e-9)
	if len(got) != d {
		t.Fatalf("cached sets left %d candidates, want %d", len(got), d)
	}
}

// The real location must always survive the intersection.
func TestIntersectionNeverLosesReal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		real := geo.Point{X: rng.Float64(), Y: rng.Float64()}
		var sets [][]geo.Point
		for q := 0; q < 3; q++ {
			sets = append(sets, dummy.GridSpread{}.LocationSet(rng, real, 16, rng.Intn(16), geo.UnitRect))
		}
		got := Intersection(sets, 1e-9)
		found := false
		for _, c := range got {
			if c == real {
				found = true
			}
		}
		if !found {
			t.Fatalf("trial %d: real location eliminated", trial)
		}
	}
}

func TestIntersectionEdgeCases(t *testing.T) {
	if got := Intersection(nil, 0.1); got != nil {
		t.Fatal("empty input returned candidates")
	}
	a := []geo.Point{{X: 0.1, Y: 0.1}}
	b := []geo.Point{{X: 0.9, Y: 0.9}}
	if got := Intersection([][]geo.Point{a, b}, 1e-9); got != nil {
		t.Fatal("disjoint sets returned candidates")
	}
}

func TestAnonymityAfterFormula(t *testing.T) {
	// One query: full anonymity d.
	if got := AnonymityAfter(25, 1, 0.01, geo.UnitRect); got != 25 {
		t.Fatalf("q=1 anonymity = %v", got)
	}
	// Anonymity is monotone non-increasing in q and tends to 1.
	prev := 26.0
	for q := 1; q <= 6; q++ {
		got := AnonymityAfter(25, q, 0.01, geo.UnitRect)
		if got > prev {
			t.Fatalf("anonymity grew at q=%d", q)
		}
		prev = got
	}
	if prev > 1.001 {
		t.Fatalf("anonymity after 6 queries = %v, want ≈1", prev)
	}
	if got := AnonymityAfter(25, 0, 0.01, geo.UnitRect); got != 25 {
		t.Fatalf("q=0 anonymity = %v", got)
	}
}

// Empirical decay matches the closed form within noise.
func TestIntersectionDecayMatchesFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const d, eps = 25, 0.05
	const trials = 60
	real := geo.Point{X: 0.5, Y: 0.5}
	for _, q := range []int{2, 3} {
		total := 0
		for trial := 0; trial < trials; trial++ {
			var sets [][]geo.Point
			for i := 0; i < q; i++ {
				sets = append(sets, dummy.Uniform{}.LocationSet(rng, real, d, rng.Intn(d), geo.UnitRect))
			}
			total += len(Intersection(sets, eps))
		}
		got := float64(total) / trials
		want := AnonymityAfter(d, q, eps, geo.UnitRect)
		if got < want*0.5 || got > want*2+1 {
			t.Fatalf("q=%d: empirical anonymity %.2f vs formula %.2f", q, got, want)
		}
	}
}

// DensityRank: on a clustered database, the density prior should not give
// the attacker a dramatic edge over random guessing for either generator —
// and the measured accuracies document the comparison.
func TestDensityRankAccuracy(t *testing.T) {
	items := dataset.Synthetic(5, 20000)
	db := rtree.Bulk(items, rtree.DefaultMaxEntries)
	rng := rand.New(rand.NewSource(6))
	const d, obs = 10, 150
	for name, gen := range map[string]dummy.Generator{
		"uniform": dummy.Uniform{},
		"grid":    dummy.GridSpread{},
	} {
		var sets [][]geo.Point
		var realIdx []int
		for i := 0; i < obs; i++ {
			// Users are positioned near POIs (sampled from the database),
			// which is what gives the density prior its power.
			real := items[rng.Intn(len(items))].P
			pos := rng.Intn(d)
			sets = append(sets, gen.LocationSet(rng, real, d, pos, geo.UnitRect))
			realIdx = append(realIdx, pos)
		}
		acc := GuessAccuracy(sets, realIdx, db, 0.02)
		t.Logf("%s dummies: density-rank top-1 accuracy %.2f (random guess %.2f)", name, acc, 1.0/d)
		if acc > 0.8 {
			t.Fatalf("%s dummies: density attack accuracy %.2f — anonymity collapsed", name, acc)
		}
		if acc < 1.0/(2*d) {
			t.Fatalf("%s dummies: accuracy %.2f below random; scoring broken?", name, acc)
		}
	}
}

func TestGuessAccuracyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched observations accepted")
		}
	}()
	GuessAccuracy(make([][]geo.Point, 2), make([]int, 1), rtree.New(0), 0.1)
}

// TestGeometryAttacksBaseline measures Privacy II against the group's own
// geometry at the paper's defaults (n=8, d=25, δ=100, so δ′=101, uniform
// dummies) on dataset.Synthetic(5, 20000). Each row draws 60 groups —
// uniform over the map, or uniform within a disc of the given radius
// around a uniform centre — builds the location sets the way the
// coordinator's round plan does (segment by Eqn 11, one position per
// subgroup), and counts how often each attacker picks the real
// candidate. Nominal is 60/101 ≈ 0.6 of 60.
//
// The counts are a recorded baseline of today's generators, not a
// guarantee: 1 of 60 for both attackers on uniform groups, 60 of 60 for
// both at every radius. The bands below hold those numbers; a
// geometry-preserving dummy generator has to move the co-located rows
// down to within a Wilson margin of 1/δ′ and rewrite them.
func TestGeometryAttacksBaseline(t *testing.T) {
	items := dataset.Synthetic(5, 20000)
	lsp := &gnn.MBM{Tree: rtree.Bulk(items, rtree.DefaultMaxEntries), Agg: gnn.Sum}
	part, err := partition.Solve(8, 25, 100)
	if err != nil {
		t.Fatal(err)
	}
	if part.DeltaPrime != 101 {
		t.Fatalf("δ′ = %d, want 101", part.DeltaPrime)
	}
	rng := rand.New(rand.NewSource(16))
	const groups = 60
	for _, row := range []struct {
		name     string
		radius   float64 // 0 = uniform over the map
		min, max int     // recorded band, either attacker
	}{
		{"uniform", 0, 0, 6},
		{"r=0.2", 0.2, 57, groups},
		{"r=0.05", 0.05, 57, groups},
		{"r=0.01", 0.01, 57, groups},
	} {
		spreadHits, costHits := 0, 0
		for g := 0; g < groups; g++ {
			real := groupAt(rng, part.N, row.radius)
			sets, realIdx := plannedSets(rng, part, real)
			cands, err := part.Candidates(sets)
			if err != nil {
				t.Fatal(err)
			}
			if MinSpread(cands) == realIdx {
				spreadHits++
			}
			if MinTop1Cost(cands, lsp) == realIdx {
				costHits++
			}
		}
		t.Logf("%-8s min-spread %2d/%d, min-top1-cost %2d/%d (nominal %.1f)",
			row.name, spreadHits, groups, costHits, groups, float64(groups)/float64(part.DeltaPrime))
		for _, hits := range []int{spreadHits, costHits} {
			if hits < row.min || hits > row.max {
				t.Errorf("%s: %d of %d hits outside the recorded band [%d, %d]",
					row.name, hits, groups, row.min, row.max)
			}
		}
	}
}

// groupAt draws n real locations: uniform over the unit square when
// radius is 0, else uniform within radius of a uniform centre, clipped to
// the square.
func groupAt(rng *rand.Rand, n int, radius float64) []geo.Point {
	c := geo.Point{X: rng.Float64(), Y: rng.Float64()}
	out := make([]geo.Point, n)
	for i := range out {
		if radius == 0 {
			out[i] = geo.Point{X: rng.Float64(), Y: rng.Float64()}
			continue
		}
		r, a := radius*math.Sqrt(rng.Float64()), 2*math.Pi*rng.Float64()
		out[i] = geo.Point{
			X: math.Min(1, math.Max(0, c.X+r*math.Cos(a))),
			Y: math.Min(1, math.Max(0, c.Y+r*math.Sin(a))),
		}
	}
	return out
}

// plannedSets builds uniform-dummy location sets as a round plan does:
// a segment drawn by Eqn 11, one relative position per subgroup, every
// member of a subgroup hiding at that position. It returns the sets and
// the real candidate's index (Eqn 12).
func plannedSets(rng *rand.Rand, part partition.Params, real []geo.Point) ([][]geo.Point, int) {
	u, acc, seg := rng.Float64(), 0.0, len(part.DBar)-1
	for i, p := range part.SegmentDist() {
		if acc += p; u < acc {
			seg = i
			break
		}
	}
	xs := make([]int, part.Alpha)
	for j := range xs {
		xs[j] = rng.Intn(part.DBar[seg])
	}
	sets := make([][]geo.Point, part.N)
	for i, loc := range real {
		pos := part.SegmentOffset(seg) + xs[part.SubgroupOfUser(i)]
		sets[i] = dummy.Uniform{}.LocationSet(rng, loc, part.D, pos, geo.UnitRect)
	}
	return sets, part.QueryIndex(seg, xs)
}
