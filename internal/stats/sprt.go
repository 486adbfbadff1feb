package stats

import (
	"fmt"
	"math"
)

// SPRT is Wald's sequential probability ratio test of H0: θ = θ0 against
// H1: θ = θ1 = θ0(1+φ) over a stream of Bernoulli(θ) samples, truncated at
// Cap = N_H samples (Theorem 5.1). After n samples with s successes the
// likelihood ratio is
//
//	Λ_n = (θ1/θ0)^s · ((1−θ1)/(1−θ0))^(n−s).
//
// The test rejects H0 as soon as Λ_n ≥ 1/γ, and accepts it as soon as
// Λ_n ≤ η/(1−γ) or when the stream reaches Cap without a decision.
//
// For θ ≤ θ0, Λ_n is a non-negative supermartingale with Λ_0 = 1, so by
// Ville's inequality P(sup_n Λ_n ≥ 1/γ) ≤ γ: the test rejects H0 with
// probability at most γ, for any stopping rule and with no normal
// approximation. Accepting early or at Cap can only lower that. The type II
// error at θ1 is not bounded by η once the stream is truncated; far above θ1
// the stream rejects H0 long before Cap.
//
// In (n, s) space both boundaries are lines of slope Slope: H0 is rejected
// once s ≥ Upper + Slope·n and accepted once s ≤ Lower + Slope·n. Lower < 0
// < Upper, so the lines never cross.
type SPRT struct {
	Slope, Upper, Lower float64
	Cap                 int
}

// NewSPRT returns the test for the sanitizer's parameters: θ0, the error
// bounds γ and η, and the ratio difference φ. It panics where SampleSize
// does, and when γ + η ≥ 1, which leaves no room between the boundaries.
func NewSPRT(theta0, gamma, eta, phi float64) SPRT {
	n := SampleSize(theta0, gamma, eta, phi)
	if !(gamma+eta < 1) {
		panic(fmt.Sprintf("stats: error bounds γ=%v η=%v sum to 1 or more", gamma, eta))
	}
	theta1 := theta0 * (1 + phi)
	hit := math.Log(theta1 / theta0)                  // log Λ step of a success, > 0
	miss := math.Log1p(-theta1) - math.Log1p(-theta0) // log Λ step of a failure, < 0
	span := hit - miss
	return SPRT{
		Slope: -miss / span,
		Upper: -math.Log(gamma) / span,
		Lower: (math.Log(eta) - math.Log1p(-gamma)) / span,
		Cap:   n,
	}
}

// MinReject returns the smallest success count that rejects H0 after n
// samples.
func (t SPRT) MinReject(n int) int {
	return int(math.Ceil(t.Upper + t.Slope*float64(n)))
}

// MaxAccept returns the largest success count that accepts H0 after n
// samples; it is negative while no count does.
func (t SPRT) MaxAccept(n int) int {
	return int(math.Floor(t.Lower + t.Slope*float64(n)))
}

// acceptAt returns the smallest n at which s successes accept H0, or Cap+1
// if none up to Cap does. MaxAccept is non-decreasing in n, so the estimate
// from the line only needs nudging past rounding.
func (t SPRT) acceptAt(s int) int {
	x := math.Ceil((float64(s) - t.Lower) / t.Slope)
	if !(x <= float64(t.Cap)+1) {
		return t.Cap + 1
	}
	n := max(int(x), 0)
	for n > 0 && t.MaxAccept(n-1) >= s {
		n--
	}
	for n <= t.Cap && t.MaxAccept(n) < s {
		n++
	}
	return n
}

// Verdict is the state of a sequential test.
type Verdict int8

const (
	Undecided Verdict = iota // more samples are needed
	RejectH0                 // Λ_n reached 1/γ: θ > θ0 is accepted
	AcceptH0                 // Λ_n fell to η/(1−γ), or the stream hit Cap
)

// Run is the progress of one test: S successes among the first N samples.
// The zero value is a test that has seen nothing.
type Run struct{ N, S int }

// Feed advances r over the samples r.N, …, to−1, exactly those at the
// indices in successes being successes (ascending, all in [r.N, to)), and
// stops at the first sample at which the test decides; r.N is then the
// number of samples the decision took. Between successes only acceptance
// can happen and at a success only rejection, so the walk costs O(1) per
// success, not per sample. to must not exceed Cap.
func (t SPRT) Feed(r *Run, successes []int32, to int) Verdict {
	for _, i := range successes {
		if n := t.acceptAt(r.S); n <= int(i) {
			r.N = n
			return AcceptH0
		}
		r.S++
		r.N = int(i) + 1
		if r.S >= t.MinReject(r.N) {
			return RejectH0
		}
	}
	if n := t.acceptAt(r.S); n <= to {
		r.N = n
		return AcceptH0
	}
	r.N = to
	if to >= t.Cap {
		return AcceptH0
	}
	return Undecided
}
