// Package geo provides the planar geometry primitives used throughout the
// PPGNN system: points, axis-aligned rectangles, and the Euclidean metric
// together with the min/max distance bounds needed by the spatial index and
// the group nearest neighbor search.
//
// The location space is the normalized unit square [0,1]×[0,1], following
// the experimental setup of the paper (Section 8.1), but nothing in this
// package assumes unit bounds except where documented.
package geo

import (
	"fmt"
	"math"
)

// Point is a location in the plane (e.g. a user location or a POI location).
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Add returns the component-wise sum p+q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Scale returns the point scaled by f.
func (p Point) Scale(f float64) Point { return Point{p.X * f, p.Y * f} }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.6f, %.6f)", p.X, p.Y) }

// Rect is an axis-aligned rectangle given by its lower-left (Min) and
// upper-right (Max) corners. A Rect with Min==Max is a degenerate rectangle
// containing a single point; that is valid.
type Rect struct {
	Min, Max Point
}

// UnitRect is the normalized location space used by the experiments.
var UnitRect = Rect{Min: Point{0, 0}, Max: Point{1, 1}}

// NewRect returns the rectangle spanning the two corner points in any order.
func NewRect(a, b Point) Rect {
	return Rect{
		Min: Point{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Max: Point{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// RectOf returns the minimum bounding rectangle of the given points.
// It panics if pts is empty.
func RectOf(pts ...Point) Rect {
	if len(pts) == 0 {
		panic("geo: RectOf of no points")
	}
	r := Rect{Min: pts[0], Max: pts[0]}
	for _, p := range pts[1:] {
		r = r.ExtendPoint(p)
	}
	return r
}

// Valid reports whether r.Min <= r.Max on both axes.
func (r Rect) Valid() bool {
	return r.Min.X <= r.Max.X && r.Min.Y <= r.Max.Y
}

// Width returns the extent of r on the X axis.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the extent of r on the Y axis.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Area returns the area of r.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Contains reports whether the point p lies inside r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// ContainsRect reports whether s lies fully inside r (boundary inclusive).
func (r Rect) ContainsRect(s Rect) bool {
	return r.Contains(s.Min) && r.Contains(s.Max)
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	return r.Min.X <= s.Max.X && s.Min.X <= r.Max.X &&
		r.Min.Y <= s.Max.Y && s.Min.Y <= r.Max.Y
}

// Extend returns the minimum bounding rectangle of r and s.
func (r Rect) Extend(s Rect) Rect {
	return Rect{
		Min: Point{math.Min(r.Min.X, s.Min.X), math.Min(r.Min.Y, s.Min.Y)},
		Max: Point{math.Max(r.Max.X, s.Max.X), math.Max(r.Max.Y, s.Max.Y)},
	}
}

// ExtendPoint returns the minimum bounding rectangle of r and the point p.
func (r Rect) ExtendPoint(p Point) Rect {
	return Rect{
		Min: Point{math.Min(r.Min.X, p.X), math.Min(r.Min.Y, p.Y)},
		Max: Point{math.Max(r.Max.X, p.X), math.Max(r.Max.Y, p.Y)},
	}
}

// MinDist returns the minimum Euclidean distance from the point p to any
// point of r. It is zero when p lies inside r. This is the classic MINDIST
// lower bound used for R-tree pruning.
//
// It must compute the same expression as Point.Dist, math.Hypot of the
// coordinate differences. Go's Hypot is max·√(1 + (min/max)²), not
// correctly rounded, but for a degenerate rect — a single-POI leaf — the
// bound and the cost then evaluate the identical expression on identical
// inputs, so the computed bound can never exceed the computed cost by an
// ulp. Bounded searches cut off at an exact k-th cost
// (gnn.MBM.SearchBounded) rely on that.
func (r Rect) MinDist(p Point) float64 {
	return math.Hypot(axisDist(p.X, r.Min.X, r.Max.X), axisDist(p.Y, r.Min.Y, r.Max.Y))
}

// MaxDist returns the maximum Euclidean distance from the point p to any
// point of r (attained at one of the four corners). It is the upper bound
// used by the cloak-region baseline to build guaranteed candidate supersets.
func (r Rect) MaxDist(p Point) float64 {
	dx := math.Max(math.Abs(p.X-r.Min.X), math.Abs(p.X-r.Max.X))
	dy := math.Max(math.Abs(p.Y-r.Min.Y), math.Abs(p.Y-r.Max.Y))
	return math.Hypot(dx, dy)
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%v - %v]", r.Min, r.Max)
}

func axisDist(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return lo - v
	case v > hi:
		return v - hi
	default:
		return 0
	}
}

// Clamp returns p constrained to lie inside r.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.Min.X), r.Max.X),
		Y: math.Min(math.Max(p.Y, r.Min.Y), r.Max.Y),
	}
}

// Centroid returns the arithmetic mean of the points. It panics if pts is
// empty. The GLP baseline queries the kNN of the group centroid.
func Centroid(pts []Point) Point {
	if len(pts) == 0 {
		panic("geo: Centroid of no points")
	}
	var c Point
	for _, p := range pts {
		c = c.Add(p)
	}
	return c.Scale(1 / float64(len(pts)))
}
