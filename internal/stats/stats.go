// Package stats provides the statistical machinery of Section 5.3: the
// standard normal quantile z_γ, the Fleiss sample-size formula of Theorem
// 5.1 (Eqn 17), and the sequential test, truncated at that sample size, that
// decides whether an inequality attack succeeds. The sequential test stands
// in for the paper's fixed-sample Z-test (Eqn 16); see SPRT.
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
