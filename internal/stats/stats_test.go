package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNormalQuantileKnownValues(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959963984540054},
		{0.95, 1.6448536269514722},
		{0.8, 0.8416212335729143},
		{0.025, -1.959963984540054},
		{0.9999, 3.719016485455709},
		{0.0001, -3.719016485455709},
	}
	for _, c := range cases {
		if got := NormalQuantile(c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("NormalQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestNormalQuantilePanicsOutOfRange(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 1.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NormalQuantile(%v) did not panic", p)
				}
			}()
			NormalQuantile(p)
		}()
	}
}

// Property: NormalCDF(NormalQuantile(p)) == p.
func TestQuantileCDFInverse(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 500,
		Rand:     rand.New(rand.NewSource(2)),
		Values:   nil,
	}
	f := func(u uint32) bool {
		p := (float64(u) + 1) / (float64(math.MaxUint32) + 2) // in (0,1)
		z := NormalQuantile(p)
		return math.Abs(NormalCDF(z)-p) < 1e-12
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuantileSymmetry(t *testing.T) {
	for _, p := range []float64{0.01, 0.1, 0.25, 0.4} {
		if got := NormalQuantile(p) + NormalQuantile(1-p); math.Abs(got) > 1e-10 {
			t.Errorf("quantile not symmetric at p=%v: sum=%v", p, got)
		}
	}
}

func TestCriticalZ(t *testing.T) {
	// The paper uses γ=0.05 → z ≈ 1.645 and η=0.2 → z ≈ 0.8416.
	if got := CriticalZ(0.05); math.Abs(got-1.6448536269514722) > 1e-9 {
		t.Errorf("CriticalZ(0.05) = %v", got)
	}
	if got := CriticalZ(0.2); math.Abs(got-0.8416212335729143) > 1e-9 {
		t.Errorf("CriticalZ(0.2) = %v", got)
	}
}

func TestSampleSizePaperDefaults(t *testing.T) {
	// γ=0.05, η=0.2, φ=0.1: for θ0=0.05 the required N_H is large (tens of
	// thousands) because θ1-θ0 = 0.005 is small.
	n := SampleSize(0.05, 0.05, 0.2, 0.1)
	if n < 10000 || n > 200000 {
		t.Errorf("SampleSize(0.05) = %d, outside plausible range", n)
	}
	// Verify against the closed form directly.
	zg, ze := CriticalZ(0.05), CriticalZ(0.2)
	th0, th1 := 0.05, 0.055
	want := math.Pow((zg*math.Sqrt(th0*(1-th0))+ze*math.Sqrt(th1*(1-th1)))/(th1-th0), 2)
	if math.Abs(float64(n)-math.Ceil(want)) > 0.5 {
		t.Errorf("SampleSize = %d, closed form = %v", n, want)
	}
}

// A stronger privacy level (larger θ0) needs fewer samples — the effect the
// paper reports in Figure 6l.
func TestSampleSizeDecreasesWithTheta0(t *testing.T) {
	prev := math.MaxInt64
	for _, th := range []float64{0.01, 0.02, 0.05, 0.1} {
		n := SampleSize(th, 0.05, 0.2, 0.1)
		if n >= prev {
			t.Fatalf("SampleSize(%v) = %d did not decrease (prev %d)", th, n, prev)
		}
		prev = n
	}
}

func TestSampleSizePanics(t *testing.T) {
	bad := [][4]float64{
		{0, 0.05, 0.2, 0.1},    // θ0 = 0
		{0.95, 0.05, 0.2, 0.1}, // θ1 > 1
		{0.05, 0, 0.2, 0.1},    // γ = 0
		{0.05, 0.05, 1, 0.1},   // η = 1
		{0.05, 0.05, 0.2, 0},   // φ = 0 → θ1 = θ0
	}
	for _, c := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SampleSize(%v) did not panic", c)
				}
			}()
			SampleSize(c[0], c[1], c[2], c[3])
		}()
	}
}

// Edge-region coverage for NormalQuantile: the rational approximation
// switches formulas at plow = 0.02425 and 1-plow, and the deep tails
// stress both the -2·log(p) transform and the Halley polish step.

func TestNormalQuantileDeepTails(t *testing.T) {
	// The Halley step keeps the round trip Φ(z_p) = p accurate to ~1e-13
	// relative error all the way down to p = 1e-300 (the polish overflows
	// only past |z| ≈ 37.5, i.e. p below ~1e-308).
	for _, p := range []float64{1e-300, 1e-100, 1e-20, 1e-15, 1e-8} {
		z := NormalQuantile(p)
		if math.IsNaN(z) || math.IsInf(z, 0) {
			t.Fatalf("NormalQuantile(%g) = %v", p, z)
		}
		back := NormalCDF(z)
		if rel := math.Abs(back-p) / p; rel > 1e-10 {
			t.Errorf("round trip at p=%g: Φ(%v)=%g, rel err %g", p, z, back, rel)
		}
	}
	// Near-one side: 1-1e-10 and the largest float64 below 1.
	for _, p := range []float64{1 - 1e-10, 0.9999999999999999} {
		z := NormalQuantile(p)
		if back := NormalCDF(z); math.Abs(back-p) > 1e-12 {
			t.Errorf("round trip at p=%v: Φ(%v)=%v", p, z, back)
		}
	}
}

func TestNormalQuantileTailSymmetry(t *testing.T) {
	// z_p = -z_{1-p} must survive into the region where the two branch
	// formulas (p < plow vs p > 1-plow) are used, not just the center.
	// The achievable agreement is bounded by representation, not by the
	// algorithm: rounding 1-p to the nearest float64 perturbs the upper
	// tail by up to half an ulp of 1.0, which the quantile magnifies by
	// dz/dp = 1/φ(z) (≈ 4e5 at |z| ≈ 7). Tolerate exactly that.
	for _, p := range []float64{1e-12, 1e-9, 1e-6, 0.001, 0.02} {
		lo, hi := NormalQuantile(p), NormalQuantile(1-p)
		phi := math.Exp(-lo*lo/2) / math.Sqrt(2*math.Pi)
		tol := 1e-9 + 2*1.2e-16/phi
		if math.Abs(lo+hi) > tol {
			t.Errorf("asymmetric tails at p=%g: %v vs %v (sum %g > tol %g)", p, lo, hi, lo+hi, tol)
		}
	}
}

func TestNormalQuantilePlowBoundary(t *testing.T) {
	// Crossing plow = 0.02425 (and 1-plow) switches between the tail and
	// central rational approximations. The polished result must stay
	// strictly monotone and continuous across both seams.
	const plow = 0.02425
	for _, center := range []float64{plow, 1 - plow} {
		prev := math.Inf(-1)
		for i := -50; i <= 50; i++ {
			p := center + float64(i)*1e-9
			z := NormalQuantile(p)
			if z <= prev {
				t.Fatalf("not strictly increasing at p=%v: z=%v after %v", p, z, prev)
			}
			if back := NormalCDF(z); math.Abs(back-p) > 1e-12 {
				t.Fatalf("round trip at boundary p=%v: Φ(%v)=%v", p, z, back)
			}
			prev = z
		}
		// No jump at the seam itself: the one-ulp-scale step between
		// adjacent grid points stays bounded by the local slope
		// (dz/dp = 1/φ(z) ≈ 20 at |z| ≈ 1.97, so 1e-9 steps move z by
		// ~2e-8).
		a := NormalQuantile(center - 1e-9)
		b := NormalQuantile(center + 1e-9)
		if d := b - a; d <= 0 || d > 1e-6 {
			t.Errorf("seam at %v: z step %g across 2e-9 in p", center, d)
		}
	}
}

func TestNormalQuantileSubnormalInput(t *testing.T) {
	// Subnormal p is inside (0,1), so it must not panic; the result must
	// at least be a finite, very negative z in the right ordering.
	tiny := math.SmallestNonzeroFloat64 // 5e-324
	z := NormalQuantile(tiny)
	if math.IsNaN(z) || z > -37 {
		t.Fatalf("NormalQuantile(subnormal) = %v, want finite z < -37", z)
	}
	if z2 := NormalQuantile(1e-300); z >= z2 {
		t.Errorf("ordering violated: z(5e-324)=%v not below z(1e-300)=%v", z, z2)
	}
}
