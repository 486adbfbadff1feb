// Package stats provides the statistical machinery of Section 5.3: the
// standard normal quantile z_γ, the one-tailed Z-test of Eqn (16) used to
// decide whether an inequality attack succeeds, and the Fleiss sample-size
// formula of Theorem 5.1 (Eqn 17) that bounds both error types.
package stats

import (
	"fmt"
	"math"
)

// NormalQuantile returns z_p, the value with Φ(z_p) = p for the standard
// normal CDF Φ. It uses Acklam's rational approximation refined with one
// Halley step against math.Erfc, giving ~1e-15 relative accuracy. It panics
// for p outside (0, 1).
func NormalQuantile(p float64) float64 {
	if !(p > 0 && p < 1) {
		panic(fmt.Sprintf("stats: NormalQuantile of p=%v outside (0,1)", p))
	}
	// Coefficients from Peter Acklam's algorithm.
	a := [6]float64{
		-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00,
	}
	b := [5]float64{
		-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01,
	}
	c := [6]float64{
		-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00,
	}
	d := [4]float64{
		7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00,
	}
	const plow = 0.02425
	var x float64
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-plow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One step of Halley's method against the high-precision CDF.
	e := NormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x
}

// NormalCDF returns Φ(x) for the standard normal distribution.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// CriticalZ returns the one-tailed critical value z_γ such that a standard
// normal exceeds it with probability γ (i.e. the (1-γ)-quantile).
func CriticalZ(gamma float64) float64 {
	return NormalQuantile(1 - gamma)
}

// ZTest holds the parameters of the one-tailed proportion test of Section
// 5.3, testing H0: θ ≤ θ0 against H1: θ > θ0.
type ZTest struct {
	Theta0 float64 // the privacy parameter θ0 of Privacy IV
	Gamma  float64 // Type I error bound γ
}

// RejectH0 reports whether the test rejects H0 (the attack is judged NOT
// successful, i.e. the solution region is large enough) given that x of n
// uniform samples landed in the attack's solution region — Eqn (16):
//
//	reject H0 iff X > n·θ0 + z_γ·sqrt(n·θ0·(1-θ0))
func (t ZTest) RejectH0(x, n int) bool {
	mean := float64(n) * t.Theta0
	sd := math.Sqrt(float64(n) * t.Theta0 * (1 - t.Theta0))
	return float64(x) > mean+CriticalZ(t.Gamma)*sd
}

// Threshold returns the smallest sample count X that rejects H0 for sample
// size n. Useful for the incremental sanitation loop: once the surviving
// sample count drops to or below this, the prefix is unsafe.
func (t ZTest) Threshold(n int) float64 {
	mean := float64(n) * t.Theta0
	sd := math.Sqrt(float64(n) * t.Theta0 * (1 - t.Theta0))
	return mean + CriticalZ(t.Gamma)*sd
}

// SampleSize returns the number of Monte-Carlo samples N_H required so that
// Pr(Type I) ≤ γ and Pr(Type II) ≤ η when distinguishing θ0 from
// θ1 = θ0·(1+φ) — Theorem 5.1 (Fleiss et al.):
//
//	N_H ≥ [ (z_γ·sqrt(θ0(1-θ0)) + z_η·sqrt(θ1(1-θ1))) / (θ1-θ0) ]²
//
// It panics when the parameters are out of range (θ0, θ1 must lie in (0,1),
// θ1 > θ0, and γ, η in (0,1)).
func SampleSize(theta0, gamma, eta, phi float64) int {
	return int(math.Ceil(SampleSizeReal(theta0, gamma, eta, phi)))
}

// SampleSizeReal is the right-hand side of Theorem 5.1 before it is rounded
// up to an integer, for callers that must bound N_H while it may still be
// too large for an int. It panics as SampleSize does.
func SampleSizeReal(theta0, gamma, eta, phi float64) float64 {
	theta1 := theta0 * (1 + phi)
	if !(theta0 > 0 && theta0 < 1) || !(theta1 > theta0 && theta1 < 1) {
		panic(fmt.Sprintf("stats: invalid thetas θ0=%v θ1=%v", theta0, theta1))
	}
	if !(gamma > 0 && gamma < 1) || !(eta > 0 && eta < 1) {
		panic(fmt.Sprintf("stats: invalid error bounds γ=%v η=%v", gamma, eta))
	}
	zg := CriticalZ(gamma)
	ze := CriticalZ(eta)
	num := zg*math.Sqrt(theta0*(1-theta0)) + ze*math.Sqrt(theta1*(1-theta1))
	v := num / (theta1 - theta0)
	return v * v
}

// BinomialSF returns the survival function Pr[X ≥ x] for X ~ Binomial(n, p),
// computed by direct summation of log-probabilities (math.Lgamma), so it is
// exact up to floating-point error for any n the sanitizer uses. The Z-test
// of Eqn (16) relies on the normal approximation, which is excellent at the
// paper's N_H (tens of thousands); RejectH0Exact uses this function instead
// and is preferable when a caller configures very small sample counts.
func BinomialSF(x, n int, p float64) float64 {
	if n < 0 || x < 0 {
		panic(fmt.Sprintf("stats: BinomialSF(%d, %d) with negative argument", x, n))
	}
	if !(p >= 0 && p <= 1) {
		panic(fmt.Sprintf("stats: BinomialSF with p=%v outside [0,1]", p))
	}
	if x > n {
		return 0
	}
	if x == 0 {
		return 1
	}
	if p == 0 {
		return 0
	}
	if p == 1 {
		return 1
	}
	lp, lq := math.Log(p), math.Log1p(-p)
	lgN, _ := math.Lgamma(float64(n + 1))
	sum := 0.0
	for i := x; i <= n; i++ {
		lgI, _ := math.Lgamma(float64(i + 1))
		lgNI, _ := math.Lgamma(float64(n - i + 1))
		sum += math.Exp(lgN - lgI - lgNI + float64(i)*lp + float64(n-i)*lq)
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// RejectH0Exact is the exact-test counterpart of RejectH0: reject H0: θ ≤ θ0
// iff Pr[X ≥ x | θ = θ0] ≤ γ. For large n it agrees with the Z-test.
func (t ZTest) RejectH0Exact(x, n int) bool {
	return BinomialSF(x, n, t.Theta0) <= t.Gamma
}
