// Package sanitize implements Section 5 of the paper: the full-user-
// collusion inequality attack and the answer sanitation that defeats it.
//
// Given a ranked answer P = {p_1, …, p_k} for query locations C, any n−1
// colluding users know every location but the target's and can intersect
// the k−1 inequalities F(p_i, C) ≤ F(p_{i+1}, C) to bound the target's
// location (Eqn 14). Privacy IV holds iff the feasible region's relative
// area θ exceeds θ0 for every target user.
//
// The LSP defends by simulating the attack itself: it returns the longest
// prefix P' of P such that, for every target user, a one-tailed Z-test
// (Eqn 16) over N_H uniform samples (Eqn 17) rejects H0: θ ≤ θ0. Testing
// only requires evaluating the inequalities at sample points, so the
// method works for any monotone aggregate F and any space shape (§5.3).
//
// What the n simulated attacks share (DESIGN.md §5): the sample points do
// not depend on the target, and neither does dist(p_i, x) — the target
// enters F(p_i, C[target→x]) only through the aggregate over the other
// users. So one call draws one set of N_H points and, per inequality,
// computes one column of distances; every target filters its own survivor
// list over them. Each target's test still sees N_H i.i.d. uniform points
// and keeps its (γ, η); what is given up is independence of the n tests
// from each other, which the AND over targets never used. The cost in
// math.Hypot calls is N_H per inequality, whatever n is.
//
// The filtering is incremental: extending the prefix by one POI adds
// exactly one inequality, so only the samples that survived the previous
// inequalities are re-tested. This is why the LSP cost plateaus as k grows
// (paper Figure 6f).
package sanitize

import (
	"fmt"
	"math"
	"math/rand"

	"ppgnn/internal/geo"
	"ppgnn/internal/gnn"
	"ppgnn/internal/stats"
)

// Paper-default hypothesis-testing parameters (Section 5.3).
const (
	DefaultGamma = 0.05 // Type I error bound γ
	DefaultEta   = 0.2  // Type II error bound η
	DefaultPhi   = 0.1  // ratio difference φ between θ1 and θ0
)

// MaxSampleSize bounds N_H. The parameters arrive on the wire and N_H grows
// as 1/(θ0·φ²), so without a bound one query message sizes the LSP's
// allocations. 1<<20 is ≈16× the paper's largest N_H (θ0 = 0.01).
const MaxSampleSize = 1 << 20

// Config parameterizes the sanitizer.
type Config struct {
	Theta0 float64       // Privacy IV parameter θ0 ∈ (0,1)
	Gamma  float64       // Type I error bound (DefaultGamma if 0)
	Eta    float64       // Type II error bound (DefaultEta if 0)
	Phi    float64       // θ1/θ0 − 1 (DefaultPhi if 0)
	Space  geo.Rect      // the location space to sample from
	Agg    gnn.Aggregate // the aggregate F of the query
}

func (c Config) withDefaults() Config {
	if c.Gamma == 0 {
		c.Gamma = DefaultGamma
	}
	if c.Eta == 0 {
		c.Eta = DefaultEta
	}
	if c.Phi == 0 {
		c.Phi = DefaultPhi
	}
	if !c.Space.Valid() || c.Space.Area() == 0 {
		c.Space = geo.UnitRect
	}
	return c
}

// ParamError reports hypothesis-testing parameters the sanitizer refuses.
type ParamError struct{ Reason string }

func (e *ParamError) Error() string { return "sanitize: " + e.Reason }

// Validate reports, as a *ParamError, parameters outside the ranges of
// Theorem 5.1 or implying more than MaxSampleSize samples. It looks at the
// numbers alone and allocates nothing.
func (c Config) Validate() error {
	c = c.withDefaults()
	inUnit := func(v float64) bool { return v > 0 && v < 1 } // false for NaN
	switch theta1 := c.Theta0 * (1 + c.Phi); {
	case !inUnit(c.Theta0):
		return &ParamError{fmt.Sprintf("θ0=%v outside (0,1)", c.Theta0)}
	case !(theta1 > c.Theta0 && theta1 < 1):
		return &ParamError{fmt.Sprintf("φ=%v does not put θ1=θ0(1+φ) in (θ0,1) for θ0=%v", c.Phi, c.Theta0)}
	case !inUnit(c.Gamma) || !inUnit(c.Eta):
		return &ParamError{fmt.Sprintf("error bounds γ=%v η=%v outside (0,1)", c.Gamma, c.Eta)}
	}
	// Compared before the int conversion, which is undefined out of range.
	if nh := stats.SampleSizeReal(c.Theta0, c.Gamma, c.Eta, c.Phi); !(nh <= MaxSampleSize) {
		return &ParamError{fmt.Sprintf("θ0=%v φ=%v need %.3g samples, above the limit %d", c.Theta0, c.Phi, nh, MaxSampleSize)}
	}
	return nil
}

// SampleSize returns N_H for this configuration (Theorem 5.1).
func (c Config) SampleSize() int {
	c = c.withDefaults()
	return stats.SampleSize(c.Theta0, c.Gamma, c.Eta, c.Phi)
}

// Sanitize returns the longest safe prefix of the ranked answer for the
// query (Section 5.2). The rng drives the Monte-Carlo sampling; use a
// per-candidate seeded source for reproducible experiments. The result is
// a pure function of the arguments.
//
// For n ≤ 1 there are no other users and Privacy IV does not apply, so the
// answer is returned unchanged. A one-element prefix is always safe.
func (c Config) Sanitize(rng *rand.Rand, answer []gnn.Result, query []geo.Point) []gnn.Result {
	return c.SanitizeWith(new(Scratch), rng, answer, query)
}

// SanitizeWith is Sanitize using the caller's working memory, for a caller
// that sanitizes many answers in a row. The result does not depend on s.
func (c Config) SanitizeWith(s *Scratch, rng *rand.Rand, answer []gnn.Result, query []geo.Point) []gnn.Result {
	c = c.withDefaults()
	if len(query) <= 1 || len(answer) <= 1 {
		return answer
	}
	if err := c.Validate(); err != nil {
		panic(err)
	}
	nh := c.SampleSize()
	s.sample(rng, c.Space, nh)
	threshold := stats.ZTest{Theta0: c.Theta0, Gamma: c.Gamma}.Threshold(nh)
	return answer[:1+s.attack(c.Agg, answer, query, 0, len(query), threshold)]
}

// AttackTheta estimates, from the colluders' side, the relative area θ of
// the region consistent with a received (already sanitized) answer for a
// given target user. It is the attack of Section 5.1 and is used by tests
// and examples to verify Privacy IV empirically.
func (c Config) AttackTheta(rng *rand.Rand, answer []gnn.Result, query []geo.Point, target, samples int) float64 {
	c = c.withDefaults()
	if target < 0 || target >= len(query) {
		panic("sanitize: target user out of range")
	}
	if samples <= 0 {
		samples = c.SampleSize()
	}
	var s Scratch
	s.sample(rng, c.Space, samples)
	s.attack(c.Agg, answer, query, target, target+1, -1)
	return float64(s.count[0]) / float64(samples)
}

// GridTheta estimates the attack region deterministically by testing a
// gridSize×gridSize lattice of cell centers instead of random samples. It
// is used to cross-validate the Monte-Carlo estimator (the Z-test needs
// i.i.d. samples, so the protocol itself uses AttackTheta/Sanitize; the
// lattice gives a reproducible reference).
func (c Config) GridTheta(answer []gnn.Result, query []geo.Point, target, gridSize int) float64 {
	c = c.withDefaults()
	if target < 0 || target >= len(query) {
		panic("sanitize: target user out of range")
	}
	if gridSize < 1 {
		panic("sanitize: grid size must be positive")
	}
	var s Scratch
	s.setLen(gridSize * gridSize)
	for i := range s.xs {
		s.xs[i] = c.Space.Min.X + (float64(i%gridSize)+0.5)/float64(gridSize)*c.Space.Width()
		s.ys[i] = c.Space.Min.Y + (float64(i/gridSize)+0.5)/float64(gridSize)*c.Space.Height()
	}
	s.attack(c.Agg, answer, query, target, target+1, -1)
	return float64(s.count[0]) / float64(len(s.xs))
}

// Scratch is the working memory of one simulated attack. The zero value is
// ready to use; a Scratch may be reused from call to call, by one goroutine
// at a time, and no result depends on what it held before.
type Scratch struct {
	xs, ys     []float64 // the sample points, shared by every target
	prev, next []float64 // dist(p_{t−1}, x_s) and dist(p_t, x_s), shared likewise
	ident      []int32   // 0, 1, 2, …: every target's survivors before the first inequality
	alive      []int32   // survivors of the u-th target: alive[u·len(xs):][:count[u]]
	count      []int
	dist       []float64 // dist(p_i, l_j) at [i·n+j]
}

func grow[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// setLen sizes the sample set to ns points, left for the caller to fill.
func (s *Scratch) setLen(ns int) {
	s.xs, s.ys = grow(s.xs, ns), grow(s.ys, ns)
	s.prev, s.next = grow(s.prev, ns), grow(s.next, ns)
	if cap(s.ident) < ns {
		s.ident = make([]int32, 0, ns)
	}
	for i := len(s.ident); i < ns; i++ {
		s.ident = append(s.ident, int32(i))
	}
}

// sample draws ns points uniformly from space.
func (s *Scratch) sample(rng *rand.Rand, space geo.Rect, ns int) {
	s.setLen(ns)
	w, h := space.Width(), space.Height()
	for i := range s.xs {
		s.xs[i] = space.Min.X + rng.Float64()*w
		s.ys[i] = space.Min.Y + rng.Float64()*h
	}
}

// attack runs the inequality attack on target users lo..hi−1 over the
// sample points in s: inequality t, F(p_t) ≤ F(p_{t+1}) with the target
// moved to the sample, thins each target's survivors in turn. It stops at
// the first inequality that leaves some target with no more than threshold
// survivors and returns how many inequalities every target passed before
// it; count[u−lo] is target u's survivor count after the last inequality
// it was tested on.
func (s *Scratch) attack(agg gnn.Aggregate, answer []gnn.Result, query []geo.Point, lo, hi int, threshold float64) int {
	n, ns := len(query), len(s.xs)
	s.count = grow(s.count, hi-lo)
	for u := range s.count {
		s.count[u] = ns
	}
	if len(answer) < 2 {
		return 0
	}
	s.alive = grow(s.alive, (hi-lo)*ns)
	s.dist = grow(s.dist, len(answer)*n)
	for i, res := range answer {
		for j, l := range query {
			s.dist[i*n+j] = res.Item.P.Dist(l)
		}
	}
	s.column(s.prev, answer[0].Item.P)
	for t := 1; t < len(answer); t++ {
		s.column(s.next, answer[t].Item.P)
		rowA, rowB := s.dist[(t-1)*n:t*n], s.dist[t*n:(t+1)*n]
		for u := lo; u < hi; u++ {
			list := s.alive[(u-lo)*ns:][:ns]
			src := s.ident[:ns]
			if t > 1 {
				src = list[:s.count[u-lo]]
			}
			s.count[u-lo] = filter(agg, list, src, s.prev, s.next, partialAggregate(agg, rowA, u), partialAggregate(agg, rowB, u))
			if float64(s.count[u-lo]) <= threshold {
				return t - 1
			}
		}
		s.prev, s.next = s.next, s.prev
	}
	return len(answer) - 1
}

// column fills col with the distance from p to every sample. It must be
// math.Hypot, as geo.Point.Dist is: the kGNN engine ranked the answer with
// it, and a target's true location satisfies every inequality only against
// distances rounded the same way.
func (s *Scratch) column(col []float64, p geo.Point) {
	ys := s.ys[:len(col)]
	for i, x := range s.xs[:len(col)] {
		col[i] = math.Hypot(p.X-x, p.Y-ys[i])
	}
}

// filter writes to dst the indices in src whose sample keeps
// F(p_a) ≤ F(p_b), given the two POIs' distance columns and their
// aggregates pa, pb over the non-target users, and returns how many it
// kept. dst may be src. The store is unconditional and only the advance
// depends on the outcome, so a coin-flip comparison costs no mispredicted
// branch.
func filter(agg gnn.Aggregate, dst, src []int32, a, b []float64, pa, pb float64) int {
	n := 0
	switch agg {
	case gnn.Sum:
		for _, i := range src {
			dst[n] = i
			if pa+a[i] <= pb+b[i] {
				n++
			}
		}
	case gnn.Max:
		for _, i := range src {
			dst[n] = i
			if max(pa, a[i]) <= max(pb, b[i]) {
				n++
			}
		}
	case gnn.Min:
		for _, i := range src {
			dst[n] = i
			if min(pa, a[i]) <= min(pb, b[i]) {
				n++
			}
		}
	default:
		panic("sanitize: unknown aggregate")
	}
	return n
}

// partialAggregate folds one POI's distances to the users, all but the
// target's: the partial sum for Sum, the partial extreme for Max and Min.
// Folding the target's own distance in with the same operator yields
// F(p, C[target→x]).
func partialAggregate(agg gnn.Aggregate, dists []float64, target int) float64 {
	acc := 0.0
	if agg == gnn.Min {
		acc = math.Inf(1)
	}
	for j, d := range dists {
		if j == target {
			continue
		}
		switch agg {
		case gnn.Sum:
			acc += d
		case gnn.Max:
			acc = max(acc, d)
		case gnn.Min:
			acc = min(acc, d)
		}
	}
	return acc
}
