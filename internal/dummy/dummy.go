// Package dummy generates the dummy locations that hide a user's real
// location inside their location set 𝕃_i (Privacy I). The paper cites the
// dummy-generation literature ([20] PAD, [22] k-anonymity dummies); two
// generators are provided:
//
//   - Uniform: d−1 locations drawn uniformly at random from the location
//     space, the baseline scheme the paper's protocol assumes.
//   - GridSpread: the space is tiled into ~d cells and one dummy is drawn
//     per cell, spreading the anonymity set across the whole space so that
//     dummies cannot be filtered by spatial clustering (after [22]).
//
// Both are deterministic given the caller's *rand.Rand, which keeps the
// protocol testable; callers without a seed of their own use NewRand.
package dummy

import (
	crand "crypto/rand"
	"fmt"
	"math"
	"math/rand"
	randv2 "math/rand/v2"

	"ppgnn/internal/geo"
)

// NewRand returns a *rand.Rand over a ChaCha8 stream (math/rand/v2) keyed
// from the OS entropy source: the default for the privacy draws — hidden
// positions, segments, dummies — of a coordinator or member built without
// a seeded generator. A math/rand source seeded from the clock would let
// anyone who can bound when a query started replay those draws. It panics
// if the OS entropy source cannot be read: crypto/rand.Read itself ends
// the program on that failure from Go 1.24 on, and no caller could draw
// a safe plan without it.
func NewRand() *rand.Rand {
	var seed [32]byte
	if _, err := crand.Read(seed[:]); err != nil {
		panic("dummy: reading OS entropy: " + err.Error())
	}
	return rand.New(chachaSource{randv2.NewChaCha8(seed)})
}

// chachaSource serves a ChaCha8 stream as a math/rand Source64.
type chachaSource struct{ *randv2.ChaCha8 }

func (s chachaSource) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed panics: the stream is keyed once, from entropy, and a reseed would
// make it predictable.
func (chachaSource) Seed(int64) { panic("dummy: an entropy-keyed source cannot be reseeded") }

// Generator produces a location set of size d with the real location at
// index pos (0-based) and dummies elsewhere.
type Generator interface {
	// LocationSet returns a slice of length d whose pos-th element is real
	// and whose remaining elements are dummies inside space.
	LocationSet(rng *rand.Rand, real geo.Point, d, pos int, space geo.Rect) []geo.Point
}

func checkArgs(d, pos int, real geo.Point, space geo.Rect) {
	if d < 1 {
		panic(fmt.Sprintf("dummy: location set size d=%d < 1", d))
	}
	if pos < 0 || pos >= d {
		panic(fmt.Sprintf("dummy: real position %d outside [0,%d)", pos, d))
	}
	if !space.Valid() {
		panic("dummy: invalid location space")
	}
	if !space.Contains(real) {
		panic(fmt.Sprintf("dummy: real location %v outside space %v", real, space))
	}
}

// Uniform draws dummies uniformly from the location space.
type Uniform struct{}

// LocationSet implements Generator.
func (Uniform) LocationSet(rng *rand.Rand, real geo.Point, d, pos int, space geo.Rect) []geo.Point {
	checkArgs(d, pos, real, space)
	out := make([]geo.Point, d)
	for i := range out {
		if i == pos {
			out[i] = real
			continue
		}
		out[i] = geo.Point{
			X: space.Min.X + rng.Float64()*space.Width(),
			Y: space.Min.Y + rng.Float64()*space.Height(),
		}
	}
	return out
}

// GridSpread tiles the space into approximately d cells and places one
// dummy per cell (skipping the real location's cell), so the anonymity set
// covers the whole space.
type GridSpread struct{}

// LocationSet implements Generator.
func (GridSpread) LocationSet(rng *rand.Rand, real geo.Point, d, pos int, space geo.Rect) []geo.Point {
	checkArgs(d, pos, real, space)
	out := make([]geo.Point, d)
	out[pos] = real

	cols := int(math.Ceil(math.Sqrt(float64(d))))
	rows := (d + cols - 1) / cols
	cw := space.Width() / float64(cols)
	ch := space.Height() / float64(rows)

	// Assign the d−1 dummies to distinct cells in a shuffled order.
	cells := rng.Perm(cols * rows)
	ci := 0
	for i := 0; i < d; i++ {
		if i == pos {
			continue
		}
		cell := cells[ci%len(cells)]
		ci++
		cx, cy := cell%cols, cell/cols
		out[i] = geo.Point{
			X: space.Min.X + (float64(cx)+rng.Float64())*cw,
			Y: space.Min.Y + (float64(cy)+rng.Float64())*ch,
		}
		out[i] = space.Clamp(out[i])
	}
	return out
}
