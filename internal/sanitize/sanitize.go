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
// prefix P' of P such that, for every target user, a test over uniform
// samples rejects H0: θ ≤ θ0. Testing only requires evaluating the
// inequalities at sample points, so the method works for any monotone
// aggregate F and any space shape (§5.3).
//
// The test is sequential (DESIGN.md §5), not the paper's fixed-sample Z-test
// (Eqn 16): stats.SPRT, Wald's likelihood-ratio test of θ0 against
// θ1 = θ0(1+φ), truncated at the Fleiss N_H of Eqn 17. Each test reads the
// stream of points in order and stops as soon as its likelihood ratio
// decides; a prefix is safe for a target only once the ratio reaches 1/γ,
// which by Ville's inequality happens with probability at most γ when
// θ ≤ θ0. Most tests decide within a few hundred points, not N_H.
//
// What the tests share: the stream of points does not depend on the target
// or the inequality, and neither does dist(p_i, x) — the target enters
// F(p_i, C[target→x]) only through the aggregate over the other users. So
// one call draws one stream, in blocks and only as far as some test needs
// it, and keeps one distance column per inequality over it; every target
// filters its own survivor list over them. Each test still sees i.i.d.
// uniform points; what is given up is independence of the n targets' tests
// from each other, which the AND over targets never used.
//
// The filtering is incremental: extending the prefix by one POI adds
// exactly one inequality, so only the points that survived the previous
// inequalities are re-tested, and a new block of points is run through the
// inequalities only as deep as each target has got.
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

// MaxSampleSize bounds N_H, the most points one test may draw. The
// parameters arrive on the wire and N_H grows as 1/(θ0·φ²), so without a
// bound one query message sizes the LSP's allocations. 1<<20 is ≈16× the
// paper's largest N_H (θ0 = 0.01).
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
// Theorem 5.1, with γ + η ≥ 1, or implying more than MaxSampleSize
// samples. It looks at the numbers alone and allocates nothing.
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
	case !(c.Gamma+c.Eta < 1):
		return &ParamError{fmt.Sprintf("error bounds γ=%v η=%v sum to 1 or more, leaving the sequential test no room", c.Gamma, c.Eta)}
	}
	// Compared before the int conversion, which is undefined out of range.
	if nh := stats.SampleSizeReal(c.Theta0, c.Gamma, c.Eta, c.Phi); !(nh <= MaxSampleSize) {
		return &ParamError{fmt.Sprintf("θ0=%v φ=%v need %.3g samples, above the limit %d", c.Theta0, c.Phi, nh, MaxSampleSize)}
	}
	return nil
}

// SampleSize returns N_H for this configuration (Theorem 5.1): the cap on the
// points any one test draws.
func (c Config) SampleSize() int {
	c = c.withDefaults()
	return stats.SampleSize(c.Theta0, c.Gamma, c.Eta, c.Phi)
}

// Sanitize returns the longest safe prefix of the ranked answer for the
// query (Section 5.2): the longest prefix whose every inequality test, for
// every target user, the sequential test passes. The rng drives the
// Monte-Carlo stream; use a per-candidate seeded source for reproducible
// experiments. The result is a pure function of the arguments.
//
// For n ≤ 1 there are no other users and Privacy IV does not apply, so the
// answer is returned unchanged. A one-element prefix is always safe.
func (c Config) Sanitize(rng *rand.Rand, answer []gnn.Result, query []geo.Point) []gnn.Result {
	return c.SanitizeWith(new(Scratch), rng, answer, query)
}

// SanitizeWith is Sanitize using the caller's working memory, for a caller
// that sanitizes many answers in a row. The result does not depend on s,
// and s grows with the points drawn, at most N_H.
func (c Config) SanitizeWith(s *Scratch, rng *rand.Rand, answer []gnn.Result, query []geo.Point) []gnn.Result {
	c = c.withDefaults()
	if len(query) <= 1 || len(answer) <= 1 {
		return answer
	}
	if err := c.Validate(); err != nil {
		panic(err)
	}
	test := stats.NewSPRT(c.Theta0, c.Gamma, c.Eta, c.Phi)
	return answer[:1+s.sequential(test, rng, c.Space, c.Agg, answer, query)]
}

// AttackTheta estimates, from the colluders' side, the relative area θ of
// the region consistent with a received (already sanitized) answer for a
// given target user. It is the attack of Section 5.1 over a fixed number of
// samples (N_H if samples ≤ 0), and is used by tests and examples to verify
// Privacy IV empirically.
func (c Config) AttackTheta(rng *rand.Rand, answer []gnn.Result, query []geo.Point, target, samples int) float64 {
	c = c.withDefaults()
	if target < 0 || target >= len(query) {
		panic("sanitize: target user out of range")
	}
	if samples <= 0 {
		samples = c.SampleSize()
	}
	var s Scratch
	s.draw(rng, c.Space, samples)
	s.attack(c.Agg, answer, query, target, target+1)
	return float64(len(s.alive[target])) / float64(samples)
}

// GridTheta estimates the attack region deterministically by testing a
// gridSize×gridSize lattice of cell centers instead of random samples. It
// is used to cross-validate the Monte-Carlo estimator (the sequential test
// needs i.i.d. samples, so the protocol itself uses Sanitize; the lattice
// gives a reproducible reference).
func (c Config) GridTheta(answer []gnn.Result, query []geo.Point, target, gridSize int) float64 {
	c = c.withDefaults()
	if target < 0 || target >= len(query) {
		panic("sanitize: target user out of range")
	}
	if gridSize < 1 {
		panic("sanitize: grid size must be positive")
	}
	ns := gridSize * gridSize
	s := Scratch{xs: make([]float64, ns), ys: make([]float64, ns)}
	for i := range ns {
		s.xs[i] = c.Space.Min.X + (float64(i%gridSize)+0.5)/float64(gridSize)*c.Space.Width()
		s.ys[i] = c.Space.Min.Y + (float64(i/gridSize)+0.5)/float64(gridSize)*c.Space.Height()
	}
	s.attack(c.Agg, answer, query, target, target+1)
	return float64(len(s.alive[target])) / float64(ns)
}

// blockSize is how many points the stream grows by when a test needs more.
const blockSize = 256

// Scratch is the working memory of one simulated attack. The zero value is
// ready to use; a Scratch may be reused from call to call, by one goroutine
// at a time, and no result depends on what it held before.
type Scratch struct {
	xs, ys     []float64 // the points drawn so far, shared by every target
	prev, next []float64 // dist(p_{t−1}, x) and dist(p_t, x) over them, shared likewise
	block      []float64 // dist(p_i, x) over the newest block at [i·m:][:m], m its length
	ident      []int32   // 0, 1, 2, …
	kept       []int32   // one target's survivors within the newest block
	alive      [][]int32 // alive[u]: the points passing target u's first depth[u] inequalities, ascending
	depth      []int
	part       []float64 // F(p_i) over all users but u at [i·n+u]
	dist       []float64 // dist(p_i, l_j) at [i·n+j]
}

func grow[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// reserve returns b with room for n more elements. It grows b at least
// twofold and to at least eight blocks, so that a fresh Scratch reaches a
// typical stream's length (≈2k points at the paper's defaults) without a
// chain of small copies.
func reserve[T any](b []T, n int) []T {
	if len(b)+n <= cap(b) {
		return b
	}
	return append(make([]T, 0, max(2*cap(b), len(b)+n, 8*blockSize)), b...)
}

// iota returns 0, 1, …, n−1.
func (s *Scratch) iota(n int) []int32 {
	for i := len(s.ident); i < n; i++ {
		s.ident = append(s.ident, int32(i))
	}
	return s.ident[:n]
}

// draw appends m points drawn uniformly from space to the stream, x then y
// for each point.
func (s *Scratch) draw(rng *rand.Rand, space geo.Rect, m int) {
	w, h := space.Width(), space.Height()
	s.xs, s.ys = reserve(s.xs, m), reserve(s.ys, m)
	for range m {
		s.xs = append(s.xs, space.Min.X+rng.Float64()*w)
		s.ys = append(s.ys, space.Min.Y+rng.Float64()*h)
	}
}

// begin readies the per-target state for answer and query: every target
// at depth 0 with an empty survivor list, and the partial aggregates.
func (s *Scratch) begin(agg gnn.Aggregate, answer []gnn.Result, query []geo.Point) {
	n := len(query)
	s.dist = grow(s.dist, len(answer)*n)
	for i, res := range answer {
		for j, l := range query {
			s.dist[i*n+j] = res.Item.P.Dist(l)
		}
	}
	s.part = grow(s.part, len(answer)*n)
	for i := range answer {
		for u := range n {
			s.part[i*n+u] = partialAggregate(agg, s.dist[i*n:(i+1)*n], u)
		}
	}
	s.alive, s.depth = grow(s.alive, n), grow(s.depth, n)
	for u := range n {
		s.alive[u], s.depth[u] = s.alive[u][:0], 0
	}
}

// sequential runs the tests in prefix order — inequality t for targets
// 0, …, n−1, then t+1 — drawing the stream on demand up to test.Cap points,
// and returns how many inequalities passed before the first test that
// accepted H0. Each test sees the stream from its first point, so its
// verdict does not depend on the order; the order only decides which tests
// run at all.
func (s *Scratch) sequential(test stats.SPRT, rng *rand.Rand, space geo.Rect, agg gnn.Aggregate, answer []gnn.Result, query []geo.Point) int {
	s.xs, s.ys, s.prev = s.xs[:0], s.ys[:0], s.prev[:0]
	s.begin(agg, answer, query)
	for t := 1; t < len(answer); t++ {
		s.next = reserve(s.next[:0], len(s.xs))[:len(s.xs)]
		column(s.next, s.xs, s.ys, answer[t].Item.P)
		for u := range query {
			s.deepen(agg, t, u)
			var run stats.Run
			v := test.Feed(&run, s.alive[u], len(s.xs))
			for v == stats.Undecided {
				s.extend(rng, space, agg, answer, t, min(blockSize, test.Cap-len(s.xs)))
				v = test.Feed(&run, s.alive[u][run.S:], len(s.xs))
			}
			if v == stats.AcceptH0 {
				return t - 1
			}
		}
		s.prev, s.next = s.next, s.prev
	}
	return len(answer) - 1
}

// extend draws m more points and runs them through every target's first
// depth[u] inequalities, t at most, appending the survivors to its list and
// dist(p_{t−1}, ·), dist(p_t, ·) to the shared columns.
func (s *Scratch) extend(rng *rand.Rand, space geo.Rect, agg gnn.Aggregate, answer []gnn.Result, t, m int) {
	from := len(s.xs)
	s.draw(rng, space, m)
	xs, ys := s.xs[from:], s.ys[from:]
	s.block = grow(s.block, (t+1)*m)
	for i := range t + 1 {
		column(s.block[i*m:(i+1)*m], xs, ys, answer[i].Item.P)
	}
	n := len(s.alive)
	s.kept = grow(s.kept, m)
	for u, d := range s.depth {
		kept := s.iota(m)
		for i := 1; i <= d; i++ {
			a, b := s.block[(i-1)*m:i*m], s.block[i*m:(i+1)*m]
			kept = s.kept[:filter(agg, s.kept, kept, a, b, s.part[(i-1)*n+u], s.part[i*n+u])]
		}
		at := len(s.alive[u])
		s.alive[u] = append(reserve(s.alive[u], len(kept)), kept...)
		for i := range s.alive[u][at:] {
			s.alive[u][at+i] += int32(from)
		}
	}
	s.prev = append(reserve(s.prev, m), s.block[(t-1)*m:t*m]...)
	s.next = append(reserve(s.next, m), s.block[t*m:(t+1)*m]...)
}

// deepen applies inequality t, F(p_{t−1}) ≤ F(p_t) with target u moved to
// the point, to u's survivors over the whole stream, using the shared
// columns prev and next.
func (s *Scratch) deepen(agg gnn.Aggregate, t, u int) {
	n := len(s.alive)
	list := s.alive[u]
	s.alive[u] = list[:filter(agg, list, list, s.prev, s.next, s.part[(t-1)*n+u], s.part[t*n+u])]
	s.depth[u] = t
}

// attack runs the inequality attack on target users lo..hi−1 over all the
// points in s, leaving in alive[u] the points that satisfy every inequality
// of answer for target u.
func (s *Scratch) attack(agg gnn.Aggregate, answer []gnn.Result, query []geo.Point, lo, hi int) {
	ns := len(s.xs)
	s.begin(agg, answer, query)
	for u := lo; u < hi; u++ {
		s.alive[u] = append(s.alive[u], s.iota(ns)...)
	}
	s.prev, s.next = grow(s.prev, ns), grow(s.next, ns)
	column(s.prev, s.xs, s.ys, answer[0].Item.P)
	for t := 1; t < len(answer); t++ {
		column(s.next, s.xs, s.ys, answer[t].Item.P)
		for u := lo; u < hi; u++ {
			s.deepen(agg, t, u)
		}
		s.prev, s.next = s.next, s.prev
	}
}

// column fills col with the distance from p to the points (xs[i], ys[i]).
// It must be math.Hypot, as geo.Point.Dist is: the kGNN engine ranked the
// answer with it, and a target's true location satisfies every inequality
// only against distances rounded the same way.
func column(col, xs, ys []float64, p geo.Point) {
	ys = ys[:len(col)]
	for i, x := range xs[:len(col)] {
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
