package dummy

import (
	"math/rand"
	"testing"

	"ppgnn/internal/geo"
)

func testGenerators() map[string]Generator {
	return map[string]Generator{
		"uniform": Uniform{},
		"grid":    GridSpread{},
	}
}

func TestLocationSetBasics(t *testing.T) {
	real := geo.Point{X: 0.3, Y: 0.7}
	for name, g := range testGenerators() {
		rng := rand.New(rand.NewSource(1))
		for _, d := range []int{1, 2, 5, 25, 50} {
			for _, pos := range []int{0, d / 2, d - 1} {
				set := g.LocationSet(rng, real, d, pos, geo.UnitRect)
				if len(set) != d {
					t.Fatalf("%s: len = %d, want %d", name, len(set), d)
				}
				if set[pos] != real {
					t.Fatalf("%s: real location not at pos %d", name, pos)
				}
				for i, p := range set {
					if !geo.UnitRect.Contains(p) {
						t.Fatalf("%s: location %d = %v outside space", name, i, p)
					}
				}
			}
		}
	}
}

func TestLocationSetDeterministic(t *testing.T) {
	real := geo.Point{X: 0.5, Y: 0.5}
	for name, g := range testGenerators() {
		a := g.LocationSet(rand.New(rand.NewSource(9)), real, 20, 3, geo.UnitRect)
		b := g.LocationSet(rand.New(rand.NewSource(9)), real, 20, 3, geo.UnitRect)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: not deterministic at %d", name, i)
			}
		}
	}
}

func TestLocationSetPanics(t *testing.T) {
	real := geo.Point{X: 0.5, Y: 0.5}
	rng := rand.New(rand.NewSource(2))
	cases := []struct {
		name string
		fn   func()
	}{
		{"d=0", func() { Uniform{}.LocationSet(rng, real, 0, 0, geo.UnitRect) }},
		{"pos<0", func() { Uniform{}.LocationSet(rng, real, 5, -1, geo.UnitRect) }},
		{"pos>=d", func() { Uniform{}.LocationSet(rng, real, 5, 5, geo.UnitRect) }},
		{"outside", func() {
			Uniform{}.LocationSet(rng, geo.Point{X: 2, Y: 2}, 5, 0, geo.UnitRect)
		}},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			c.fn()
		}()
	}
}

func TestUniformCoversSpace(t *testing.T) {
	// With many dummies, all four quadrants should be hit.
	rng := rand.New(rand.NewSource(3))
	set := Uniform{}.LocationSet(rng, geo.Point{X: 0.01, Y: 0.01}, 200, 0, geo.UnitRect)
	var q [4]int
	for _, p := range set {
		i := 0
		if p.X >= 0.5 {
			i++
		}
		if p.Y >= 0.5 {
			i += 2
		}
		q[i]++
	}
	for i, c := range q {
		if c == 0 {
			t.Fatalf("quadrant %d empty", i)
		}
	}
}

func TestGridSpreadDistinctCells(t *testing.T) {
	// d-1 dummies over a d-cell grid: no cell should receive two dummies
	// when d-1 <= number of cells.
	rng := rand.New(rand.NewSource(4))
	d := 25
	set := GridSpread{}.LocationSet(rng, geo.Point{X: 0.5, Y: 0.5}, d, 7, geo.UnitRect)
	cols := 5
	seen := map[int]int{}
	for i, p := range set {
		if i == 7 {
			continue
		}
		cx := int(p.X * float64(cols))
		cy := int(p.Y * float64(cols))
		if cx == cols {
			cx--
		}
		if cy == cols {
			cy--
		}
		seen[cy*cols+cx]++
	}
	for cell, c := range seen {
		if c > 1 {
			t.Fatalf("cell %d received %d dummies", cell, c)
		}
	}
}

func TestNonUnitSpace(t *testing.T) {
	space := geo.Rect{Min: geo.Point{X: -10, Y: 5}, Max: geo.Point{X: 10, Y: 25}}
	real := geo.Point{X: 0, Y: 15}
	for name, g := range testGenerators() {
		rng := rand.New(rand.NewSource(5))
		set := g.LocationSet(rng, real, 30, 4, space)
		for i, p := range set {
			if !space.Contains(p) {
				t.Fatalf("%s: location %d = %v outside %v", name, i, p, space)
			}
		}
	}
}

// TestNewRandIsKeyedPerCall checks that two entropy-keyed generators made
// back to back produce different streams and refuse a reseed.
func TestNewRandIsKeyedPerCall(t *testing.T) {
	a, b := NewRand(), NewRand()
	same := true
	for i := 0; i < 4; i++ {
		if a.Uint64() != b.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("two NewRand streams agree on their first four draws")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("reseeding an entropy-keyed generator did not panic")
		}
	}()
	a.Seed(1)
}
