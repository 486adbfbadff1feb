package stats

import (
	"math"
	"math/rand"
	"testing"
)

// stream is a seeded Bernoulli(θ) stream, generated as the indices of its
// successes: the gap before each success is geometric, so a draw costs one
// random number per success rather than one per sample.
type stream struct {
	rng   *rand.Rand
	logq  float64 // log(1−θ)
	index int     // index of the next success
}

func newStream(rng *rand.Rand, theta float64) *stream {
	s := &stream{rng: rng, logq: math.Log1p(-theta), index: -1}
	s.advance()
	return s
}

func (s *stream) advance() {
	s.index += 1 + int(math.Floor(math.Log(1-s.rng.Float64())/s.logq))
}

// successes appends to dst the indices of the successes below to.
func (s *stream) successes(dst []int32, to int) []int32 {
	for s.index < to {
		dst = append(dst, int32(s.index))
		s.advance()
	}
	return dst
}

// run feeds a fresh stream to the test in blocks of the given size, as the
// sanitizer does, and returns the verdict and the samples it took.
func run(test SPRT, rng *rand.Rand, theta float64, block int) (Verdict, int) {
	src := newStream(rng, theta)
	var r Run
	var buf []int32
	for to := min(block, test.Cap); ; to = min(to+block, test.Cap) {
		buf = src.successes(buf[:0], to)
		if v := test.Feed(&r, buf, to); v != Undecided {
			return v, r.N
		}
	}
}

// wilsonUpper is the upper end of the 95% Wilson score interval of x
// successes in n trials.
func wilsonUpper(x, n int) float64 {
	const z = 1.96
	p, fn := float64(x)/float64(n), float64(n)
	mid := (p + z*z/(2*fn)) / (1 + z*z/fn)
	half := z * math.Sqrt(p*(1-p)/fn+z*z/(4*fn*fn)) / (1 + z*z/fn)
	return mid + half
}

// The test's error bounds, measured on seeded Bernoulli streams truncated at
// N_H: at and below θ0 the rejection rate's Wilson upper bound is within γ,
// and at twice θ1 the test rejects with probability at least 1 − η. At θ1
// itself the rate is only logged: truncation gives up Eqn 16's η there.
func TestSPRTTypeIErrorRate(t *testing.T) {
	const gamma, eta, phi, trials = 0.05, 0.2, 0.1, 20000
	for _, theta0 := range []float64{0.01, 0.05, 0.1} {
		test := NewSPRT(theta0, gamma, eta, phi)
		theta1 := theta0 * (1 + phi)
		for _, c := range []struct {
			theta     float64
			null, alt bool
		}{{theta0 / 2, true, false}, {theta0, true, false}, {theta1, false, false}, {2 * theta1, false, true}} {
			rng := rand.New(rand.NewSource(int64(1e6*theta0 + 1e3*c.theta)))
			rejected, samples := 0, 0
			for range trials {
				v, n := run(test, rng, c.theta, 256)
				if v == RejectH0 {
					rejected++
				}
				samples += n
			}
			rate := float64(rejected) / trials
			t.Logf("θ0=%v θ=%.4f: P(reject H0) = %.4f (Wilson upper %.4f), mean samples %.0f of N_H=%d",
				theta0, c.theta, rate, wilsonUpper(rejected, trials), float64(samples)/trials, test.Cap)
			if c.null && wilsonUpper(rejected, trials) > gamma {
				t.Errorf("θ0=%v θ=%v: rejection rate %.4f, Wilson upper bound %.4f above γ=%v", theta0, c.theta, rate, wilsonUpper(rejected, trials), gamma)
			}
			if c.alt && rate < 1-eta {
				t.Errorf("θ0=%v θ=%v: rejection rate %.4f below 1−η=%v", theta0, c.theta, rate, 1-eta)
			}
		}
	}
}

// Feed, which jumps from success to success and is resumed block by block,
// decides exactly where a walk that checks both count lines after every
// sample does.
func TestSPRTFeedMatchesPerSample(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := range 3000 {
		theta0 := []float64{0.01, 0.05, 0.1, 0.3}[trial%4]
		test := NewSPRT(theta0, 0.05, 0.2, 0.1)
		theta := theta0 * (0.5 + rng.Float64())
		src := newStream(rng, theta)
		succ := src.successes(nil, test.Cap)

		wantV, wantN := AcceptH0, test.Cap
		s := 0
		for n := 1; n <= test.Cap; n++ {
			if s < len(succ) && int(succ[s]) == n-1 {
				s++
			}
			if s >= test.MinReject(n) {
				wantV, wantN = RejectH0, n
				break
			}
			if s <= test.MaxAccept(n) {
				wantN = n
				break
			}
		}

		var r Run
		block := 1 + rng.Intn(1000)
		v, at := Undecided, 0
		for to := min(block, test.Cap); v == Undecided; to = min(to+block, test.Cap) {
			for at < len(succ) && int(succ[at]) < to {
				at++
			}
			v = test.Feed(&r, succ[r.S:at], to)
		}
		if v != wantV || r.N != wantN {
			t.Fatalf("trial %d θ0=%v θ=%.4f blocks of %d: Feed gives %v after %d samples, the per-sample walk %v after %d",
				trial, theta0, theta, block, v, r.N, wantV, wantN)
		}
	}
}

// At the paper's defaults the cap is Theorem 5.1's N_H, and the rejection
// line at N_H asks for θ̂ ≥ 0.0549, a little above Eqn 16's 0.0533.
func TestSPRTPaperDefaults(t *testing.T) {
	test := NewSPRT(0.05, 0.05, 0.2, 0.1)
	if test.Cap != SampleSize(0.05, 0.05, 0.2, 0.1) {
		t.Fatalf("cap %d, N_H %d", test.Cap, SampleSize(0.05, 0.05, 0.2, 0.1))
	}
	if got := float64(test.MinReject(test.Cap)) / float64(test.Cap); math.Abs(got-0.0549) > 0.0001 {
		t.Errorf("rejection at N_H needs θ̂ ≥ %.5f, want 0.0549", got)
	}
	if !(test.Lower < 0 && test.Upper > 0 && test.Slope > 0.05 && test.Slope < 0.055) {
		t.Errorf("lines %+v: want Lower < 0 < Upper and a slope between θ0 and θ1", test)
	}
	for _, c := range [][4]float64{{0.05, 0.5, 0.5, 0.1}, {0.05, 0.9, 0.2, 0.1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSPRT%v accepted γ + η ≥ 1", c)
				}
			}()
			NewSPRT(c[0], c[1], c[2], c[3])
		}()
	}
}

// FuzzSPRT checks, for valid parameters, that the integer count lines are
// the log-likelihood boundaries: at every n up to N_H, MinReject(n) is the
// smallest count with log Λ_n ≥ log(1/γ) and MaxAccept(n) the largest with
// log Λ_n ≤ log(η/(1−γ)); that the lines never cross; and that Feed's jump
// to the first accepting sample lands where MaxAccept first reaches s.
func FuzzSPRT(f *testing.F) {
	f.Add(uint16(49), uint16(49), uint16(199), uint16(99))  // the paper's defaults
	f.Add(uint16(9), uint16(49), uint16(199), uint16(99))   // θ0 = 0.01
	f.Add(uint16(499), uint16(9), uint16(9), uint16(499))   // θ0 = 0.5, φ = 0.5
	f.Add(uint16(998), uint16(498), uint16(498), uint16(0)) // θ0 = 0.999
	f.Fuzz(func(t *testing.T, a, b, c, d uint16) {
		theta0 := float64(1+a%999) / 1000 // 0.001 … 0.999
		gamma := float64(1+b%499) / 1000  // 0.001 … 0.499
		eta := float64(1+c%499) / 1000
		phi := float64(1+d%1000) / 1000 // 0.001 … 1
		theta1 := theta0 * (1 + phi)
		if !(theta1 < 1) || SampleSizeReal(theta0, gamma, eta, phi) > 1<<20 {
			t.Skip()
		}
		test := NewSPRT(theta0, gamma, eta, phi)
		hit, miss := math.Log(theta1/theta0), math.Log1p(-theta1)-math.Log1p(-theta0)
		logLR := func(s, n int) float64 { return float64(s)*hit + float64(n-s)*miss }
		up, down := -math.Log(gamma), math.Log(eta)-math.Log1p(-gamma)
		prevAccept := test.MaxAccept(0)
		for n := 0; n <= test.Cap; n++ {
			rej, acc := test.MinReject(n), test.MaxAccept(n)
			tol := 1e-9 * (1 + float64(n)*(hit-miss))
			if logLR(rej, n) < up-tol || logLR(rej-1, n) >= up+tol {
				t.Fatalf("n=%d: MinReject %d, log Λ %v and %v one below, boundary %v", n, rej, logLR(rej, n), logLR(rej-1, n), up)
			}
			if logLR(acc, n) > down+tol || logLR(acc+1, n) <= down-tol {
				t.Fatalf("n=%d: MaxAccept %d, log Λ %v and %v one above, boundary %v", n, acc, logLR(acc, n), logLR(acc+1, n), down)
			}
			if acc >= rej {
				t.Fatalf("n=%d: lines cross, MaxAccept %d ≥ MinReject %d", n, acc, rej)
			}
			for s := max(prevAccept+1, 0); s <= acc; s++ {
				if got := test.acceptAt(s); got != n {
					t.Fatalf("acceptAt(%d) = %d, MaxAccept first reaches it at %d", s, got, n)
				}
			}
			prevAccept = acc
		}
		if got := test.acceptAt(prevAccept + 1); got != test.Cap+1 {
			t.Fatalf("acceptAt(%d) = %d, want Cap+1 = %d", prevAccept+1, got, test.Cap+1)
		}
	})
}
