// Package partition implements the candidate-query machinery of Section
// 4.1: solving the nonlinear integer program (Eqn 7–10) for the partition
// parameters (n̄, d̄), computing the query index of the real query in the
// candidate list (Eqn 12), and enumerating the candidate queries by
// cartesian products of subgroup columns per segment.
//
// The paper proposes solving the MINLP offline with a generic solver
// (Bonmin); the instance sizes here (d ≤ ~50, n ≤ ~32, δ ≤ ~200) are tiny,
// so this package solves it exactly with a dynamic program over segment
// sizes, memoizing results per (n, d, δ) as the paper's precomputation
// prescribes.
package partition

import (
	"fmt"
	"math"
	"sync"

	"ppgnn/internal/geo"
)

// Params are the partition parameters {n̄, d̄} shared by users and LSP,
// together with the derived candidate-query count δ'.
type Params struct {
	N     int // group size
	D     int // location-set size (Privacy I parameter)
	Delta int // requested minimum candidate count (Privacy II parameter)

	Alpha      int   // number of subgroups α = len(NBar)
	NBar       []int // subgroup sizes, Σ = N
	DBar       []int // segment sizes, Σ = D
	DeltaPrime int   // Σ_i DBar[i]^Alpha ≥ Delta, minimized
}

// satCap bounds intermediate powers so the DP cannot overflow int64.
const satCap = math.MaxInt64 / 4

// powSat returns base^exp saturated at satCap.
func powSat(base, exp int) int64 {
	r := int64(1)
	for i := 0; i < exp; i++ {
		r *= int64(base)
		if r >= satCap || r < 0 {
			return satCap
		}
	}
	return r
}

// CandidateCount returns δ' = Σ_i d̄_i^α for a shape nobody has validated
// yet, saturating at math.MaxInt instead of overflowing (a non-positive
// d̄_i may saturate too; Validate rejects it by name). Callers bound it
// before allocating anything of that size.
func CandidateCount(alpha int, dBar []int) int {
	total := int64(0)
	for _, v := range dBar {
		if total += powSat(v, alpha); total >= satCap || total > math.MaxInt {
			return math.MaxInt
		}
	}
	return int(total)
}

type solveKey struct{ n, d, delta int }

var (
	cacheMu sync.Mutex
	cache   = map[solveKey]Params{}
)

// Solve finds partition parameters minimizing δ' = Σ_i d̄_i^α subject to
// δ' ≥ δ, Σ_i d̄_i = d, 1 ≤ α ≤ n. Results are memoized, mirroring the
// paper's offline precomputation for frequently used (n, d, δ).
//
// It returns an error when the instance is infeasible, i.e. δ > d^n, in
// which case the users must specify a larger d (Section 4.1).
func Solve(n, d, delta int) (Params, error) {
	if n < 1 || d < 1 || delta < 1 {
		return Params{}, fmt.Errorf("partition: invalid parameters n=%d d=%d δ=%d", n, d, delta)
	}
	key := solveKey{n, d, delta}
	cacheMu.Lock()
	if p, ok := cache[key]; ok {
		cacheMu.Unlock()
		return p, nil
	}
	cacheMu.Unlock()

	if powSat(d, n) < int64(delta) {
		return Params{}, fmt.Errorf("partition: infeasible: δ=%d > d^n=%d^%d; increase d", delta, d, n)
	}

	best := Params{DeltaPrime: -1}
	for alpha := 1; alpha <= n; alpha++ {
		dbar, total, ok := bestSegments(d, delta, alpha)
		if !ok {
			continue
		}
		if best.DeltaPrime == -1 || total < int64(best.DeltaPrime) {
			best = Params{
				N: n, D: d, Delta: delta,
				Alpha:      alpha,
				NBar:       balanced(n, alpha),
				DBar:       dbar,
				DeltaPrime: int(total),
			}
		}
	}
	if best.DeltaPrime == -1 {
		return Params{}, fmt.Errorf("partition: no feasible partition for n=%d d=%d δ=%d", n, d, delta)
	}
	cacheMu.Lock()
	cache[key] = best
	cacheMu.Unlock()
	return best, nil
}

// bestSegments finds, for a fixed α, the multiset of segment sizes summing
// to d that minimizes Σ d̄_i^α subject to Σ d̄_i^α ≥ δ. The DP state is
// (remaining budget of d, remaining δ to reach, maximum next part size) —
// parts are generated in non-increasing order to avoid counting permuted
// partitions twice.
func bestSegments(d, delta, alpha int) ([]int, int64, bool) {
	type state struct{ rem, need, maxPart int }
	memo := map[state]int64{}
	const inf = int64(math.MaxInt64)

	var solve func(rem, need, maxPart int) int64
	solve = func(rem, need, maxPart int) int64 {
		if rem == 0 {
			if need <= 0 {
				return 0
			}
			return inf
		}
		if maxPart > rem {
			maxPart = rem
		}
		if maxPart == 0 {
			return inf
		}
		st := state{rem, need, maxPart}
		if v, ok := memo[st]; ok {
			return v
		}
		bestV := inf
		for t := maxPart; t >= 1; t-- {
			cost := powSat(t, alpha)
			nextNeed := need - int(min64(cost, int64(need)))
			sub := solve(rem-t, nextNeed, t)
			if sub == inf {
				continue
			}
			if v := cost + sub; v < bestV {
				bestV = v
			}
		}
		memo[st] = bestV
		return bestV
	}

	total := solve(d, delta, d)
	if total == inf || total >= satCap {
		return nil, 0, false
	}
	// Reconstruct one optimal partition.
	var parts []int
	rem, need, maxPart := d, delta, d
	for rem > 0 {
		if maxPart > rem {
			maxPart = rem
		}
		found := false
		for t := maxPart; t >= 1; t-- {
			cost := powSat(t, alpha)
			nextNeed := need - int(min64(cost, int64(need)))
			sub := solve(rem-t, nextNeed, t)
			if sub != inf && cost+sub == solve(rem, need, maxPart) {
				parts = append(parts, t)
				rem -= t
				need = nextNeed
				maxPart = t
				found = true
				break
			}
		}
		if !found {
			return nil, 0, false
		}
	}
	return parts, total, true
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// balanced splits n into parts of near-equal size (the subgroup sizes are
// irrelevant to δ', Eqn 7, so any partition works).
func balanced(n, parts int) []int {
	out := make([]int, parts)
	base, extra := n/parts, n%parts
	for i := range out {
		out[i] = base
		if i < extra {
			out[i]++
		}
	}
	return out
}

// Validate checks internal consistency (used on LSP receipt of parameters
// from an untrusted coordinator).
func (p Params) Validate() error {
	if p.Alpha != len(p.NBar) {
		return fmt.Errorf("partition: α=%d but %d subgroup sizes", p.Alpha, len(p.NBar))
	}
	sumN := 0
	for _, v := range p.NBar {
		if v < 1 {
			return fmt.Errorf("partition: non-positive subgroup size %d", v)
		}
		sumN += v
	}
	if sumN != p.N {
		return fmt.Errorf("partition: subgroup sizes sum to %d, want n=%d", sumN, p.N)
	}
	sumD, total := 0, int64(0)
	for _, v := range p.DBar {
		if v < 1 {
			return fmt.Errorf("partition: non-positive segment size %d", v)
		}
		sumD += v
		total += powSat(v, p.Alpha)
	}
	if sumD != p.D {
		return fmt.Errorf("partition: segment sizes sum to %d, want d=%d", sumD, p.D)
	}
	if total != int64(p.DeltaPrime) {
		return fmt.Errorf("partition: δ'=%d but segments give %d", p.DeltaPrime, total)
	}
	if p.DeltaPrime < p.Delta {
		return fmt.Errorf("partition: δ'=%d < δ=%d", p.DeltaPrime, p.Delta)
	}
	return nil
}

// SegmentOffset returns the absolute position (0-based) of the first
// location of segment seg (0-based).
func (p Params) SegmentOffset(seg int) int {
	off := 0
	for i := 0; i < seg; i++ {
		off += p.DBar[i]
	}
	return off
}

// SegmentDist returns the probability distribution over segments of Eqn
// (11): P(seg=i) = d̄_i / d, which makes every absolute position equally
// likely and yields the 1/d guarantee of Privacy I (Theorem 4.3).
func (p Params) SegmentDist() []float64 {
	dist := make([]float64, len(p.DBar))
	for i, v := range p.DBar {
		dist[i] = float64(v) / float64(p.D)
	}
	return dist
}

// SubgroupOfUser returns the subgroup index (0-based) of user i (0-based):
// the first n̄_1 users form subgroup 1, the next n̄_2 subgroup 2, and so on.
func (p Params) SubgroupOfUser(i int) int {
	for j, size := range p.NBar {
		if i < size {
			return j
		}
		i -= size
	}
	panic(fmt.Sprintf("partition: user index out of range"))
}

// QueryIndex computes the 0-based position of the real query in the
// candidate query list (Eqn 12, minus the paper's trailing +1): seg is the
// chosen segment (0-based) and x[j] the relative position (0-based) chosen
// for subgroup j within that segment.
func (p Params) QueryIndex(seg int, x []int) int {
	if len(x) != p.Alpha {
		panic("partition: relative position vector length != α")
	}
	idx := 0
	for i := 0; i < seg; i++ {
		idx += int(powSat(p.DBar[i], p.Alpha))
	}
	stride := 1
	strides := make([]int, p.Alpha)
	for j := p.Alpha - 1; j >= 0; j-- {
		strides[j] = stride
		stride *= p.DBar[seg]
	}
	for j, xj := range x {
		if xj < 0 || xj >= p.DBar[seg] {
			panic("partition: relative position out of segment range")
		}
		idx += xj * strides[j]
	}
	return idx
}

// CandidateAt inverts QueryIndex: given the 0-based candidate index t it
// returns the segment and per-subgroup relative positions identifying the
// candidate query.
func (p Params) CandidateAt(t int) (seg int, x []int) {
	if t < 0 || t >= p.DeltaPrime {
		panic("partition: candidate index out of range")
	}
	for i, di := range p.DBar {
		block := int(powSat(di, p.Alpha))
		if t < block {
			x = make([]int, p.Alpha)
			for j := p.Alpha - 1; j >= 0; j-- {
				x[j] = t % di
				t /= di
			}
			return i, x
		}
		t -= block
	}
	panic("partition: unreachable")
}

// Candidates materializes the full candidate query list from the users'
// location sets (Section 4.1): for each segment the cartesian product over
// subgroups of the positions in that segment, listed in lexicographic
// order of (segment, x_1, …, x_α). locSets[i] is user i's location set of
// length d. Each returned candidate is a query of n locations in user order,
// candidate t being the one CandidateAt(t) identifies.
func (p Params) Candidates(locSets [][]geo.Point) ([][]geo.Point, error) {
	if len(locSets) != p.N {
		return nil, fmt.Errorf("partition: %d location sets, want n=%d", len(locSets), p.N)
	}
	for i, ls := range locSets {
		if len(ls) != p.D {
			return nil, fmt.Errorf("partition: location set %d has %d entries, want d=%d", i, len(ls), p.D)
		}
	}
	out := make([][]geo.Point, p.DeltaPrime)
	for t := range out {
		seg, x := p.CandidateAt(t)
		out[t] = p.candidate(locSets, seg, x)
	}
	return out, nil
}

// candidate builds a single candidate query: every user in subgroup j takes
// the location at absolute position SegmentOffset(seg)+x[j].
func (p Params) candidate(locSets [][]geo.Point, seg int, x []int) []geo.Point {
	q := make([]geo.Point, p.N)
	off := p.SegmentOffset(seg)
	user := 0
	for j, size := range p.NBar {
		pos := off + x[j]
		for u := 0; u < size; u++ {
			q[user] = locSets[user][pos]
			user++
		}
	}
	return q
}
