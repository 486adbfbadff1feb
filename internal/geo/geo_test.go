package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// almostEq tolerates float rounding; exact equality first so that equal
// infinities (from extreme quick-generated inputs) compare equal.
func almostEq(a, b float64) bool { return a == b || math.Abs(a-b) < 1e-9 }

func TestDist(t *testing.T) {
	cases := []struct {
		p, q Point
		want float64
	}{
		{Point{0, 0}, Point{3, 4}, 5},
		{Point{1, 1}, Point{1, 1}, 0},
		{Point{-1, 0}, Point{1, 0}, 2},
		{Point{0.5, 0.5}, Point{0.5, 0.75}, 0.25},
	}
	for _, c := range cases {
		if got := c.p.Dist(c.q); !almostEq(got, c.want) {
			t.Errorf("Dist(%v,%v) = %v, want %v", c.p, c.q, got, c.want)
		}
	}
}

func TestDistSymmetry(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a, b := Point{ax, ay}, Point{bx, by}
		return almostEq(a.Dist(b), b.Dist(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a := Point{rng.Float64(), rng.Float64()}
		b := Point{rng.Float64(), rng.Float64()}
		c := Point{rng.Float64(), rng.Float64()}
		if a.Dist(c) > a.Dist(b)+b.Dist(c)+1e-12 {
			t.Fatalf("triangle inequality violated for %v %v %v", a, b, c)
		}
	}
}

func TestNewRectOrientation(t *testing.T) {
	r := NewRect(Point{1, 0}, Point{0, 1})
	if !r.Valid() {
		t.Fatalf("NewRect produced invalid rect %v", r)
	}
	if r.Min != (Point{0, 0}) || r.Max != (Point{1, 1}) {
		t.Fatalf("NewRect = %v, want unit rect", r)
	}
}

func TestRectOf(t *testing.T) {
	r := RectOf(Point{0.2, 0.8}, Point{0.5, 0.1}, Point{0.9, 0.4})
	want := Rect{Point{0.2, 0.1}, Point{0.9, 0.8}}
	if r != want {
		t.Fatalf("RectOf = %v, want %v", r, want)
	}
}

func TestRectOfPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RectOf() did not panic on empty input")
		}
	}()
	RectOf()
}

func TestCentroidPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Centroid(nil) did not panic")
		}
	}()
	Centroid(nil)
}

func TestRectBasics(t *testing.T) {
	r := Rect{Point{0, 0}, Point{2, 1}}
	if got := r.Area(); !almostEq(got, 2) {
		t.Errorf("Area = %v, want 2", got)
	}
	if got := r.Center(); got != (Point{1, 0.5}) {
		t.Errorf("Center = %v, want (1,0.5)", got)
	}
	if !r.Contains(Point{2, 1}) {
		t.Error("Contains should be boundary-inclusive")
	}
	if r.Contains(Point{2.0001, 1}) {
		t.Error("Contains accepted an outside point")
	}
}

func TestIntersects(t *testing.T) {
	a := Rect{Point{0, 0}, Point{1, 1}}
	cases := []struct {
		b    Rect
		want bool
	}{
		{Rect{Point{0.5, 0.5}, Point{1.5, 1.5}}, true},
		{Rect{Point{1, 1}, Point{2, 2}}, true}, // touching corner counts
		{Rect{Point{1.1, 1.1}, Point{2, 2}}, false},
		{Rect{Point{-1, -1}, Point{2, 2}}, true}, // containment
		{Rect{Point{0.25, -5}, Point{0.5, 5}}, true},
	}
	for _, c := range cases {
		if got := a.Intersects(c.b); got != c.want {
			t.Errorf("Intersects(%v) = %v, want %v", c.b, got, c.want)
		}
		if got := c.b.Intersects(a); got != c.want {
			t.Errorf("Intersects not symmetric for %v", c.b)
		}
	}
}

func TestExtend(t *testing.T) {
	a := Rect{Point{0, 0}, Point{1, 1}}
	b := Rect{Point{2, -1}, Point{3, 0.5}}
	e := a.Extend(b)
	want := Rect{Point{0, -1}, Point{3, 1}}
	if e != want {
		t.Fatalf("Extend = %v, want %v", e, want)
	}
	if !e.ContainsRect(a) || !e.ContainsRect(b) {
		t.Fatal("Extend result does not contain inputs")
	}
}

func TestMinDist(t *testing.T) {
	r := Rect{Point{0, 0}, Point{1, 1}}
	cases := []struct {
		p    Point
		want float64
	}{
		{Point{0.5, 0.5}, 0}, // inside
		{Point{1, 1}, 0},     // on boundary
		{Point{2, 0.5}, 1},   // right side
		{Point{0.5, -2}, 2},  // below
		{Point{4, 5}, 5},     // corner: 3-4-5 triangle
		{Point{-3, -4}, 5},   // opposite corner
	}
	for _, c := range cases {
		if got := r.MinDist(c.p); !almostEq(got, c.want) {
			t.Errorf("MinDist(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestMaxDist(t *testing.T) {
	r := Rect{Point{0, 0}, Point{1, 1}}
	if got := r.MaxDist(Point{0, 0}); !almostEq(got, math.Sqrt2) {
		t.Errorf("MaxDist(corner) = %v, want sqrt(2)", got)
	}
	if got := r.MaxDist(Point{0.5, 0.5}); !almostEq(got, math.Sqrt2/2) {
		t.Errorf("MaxDist(center) = %v, want sqrt(2)/2", got)
	}
}

// MinDist must lower-bound and MaxDist upper-bound the distance from p to
// every point inside the rectangle.
func TestMinMaxDistBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		r := NewRect(
			Point{rng.Float64() * 10, rng.Float64() * 10},
			Point{rng.Float64() * 10, rng.Float64() * 10},
		)
		p := Point{rng.Float64()*20 - 5, rng.Float64()*20 - 5}
		lo, hi := r.MinDist(p), r.MaxDist(p)
		if lo > hi+1e-12 {
			t.Fatalf("MinDist %v > MaxDist %v for r=%v p=%v", lo, hi, r, p)
		}
		for j := 0; j < 20; j++ {
			q := Point{
				r.Min.X + rng.Float64()*r.Width(),
				r.Min.Y + rng.Float64()*r.Height(),
			}
			d := p.Dist(q)
			if d < lo-1e-9 || d > hi+1e-9 {
				t.Fatalf("point %v in %v at distance %v outside [%v,%v] from %v", q, r, d, lo, hi, p)
			}
		}
	}
}

func TestClamp(t *testing.T) {
	r := Rect{Point{0, 0}, Point{1, 1}}
	cases := []struct{ in, want Point }{
		{Point{0.5, 0.5}, Point{0.5, 0.5}},
		{Point{-1, 0.5}, Point{0, 0.5}},
		{Point{2, 3}, Point{1, 1}},
		{Point{0.25, -9}, Point{0.25, 0}},
	}
	for _, c := range cases {
		if got := r.Clamp(c.in); got != c.want {
			t.Errorf("Clamp(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestCentroid(t *testing.T) {
	pts := []Point{{0, 0}, {1, 0}, {1, 1}, {0, 1}}
	if got := Centroid(pts); !almostEq(got.X, 0.5) || !almostEq(got.Y, 0.5) {
		t.Fatalf("Centroid = %v, want (0.5,0.5)", got)
	}
	one := []Point{{0.3, 0.7}}
	if got := Centroid(one); got != one[0] {
		t.Fatalf("Centroid of single point = %v, want %v", got, one[0])
	}
}
