package sanitize

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ppgnn/internal/geo"
	"ppgnn/internal/gnn"
	"ppgnn/internal/rtree"
	"ppgnn/internal/stats"
)

func defaultConfig(theta0 float64) Config {
	return Config{Theta0: theta0, Space: geo.UnitRect, Agg: gnn.Sum}
}

func randomQuery(rng *rand.Rand, n int) []geo.Point {
	q := make([]geo.Point, n)
	for i := range q {
		q[i] = geo.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	return q
}

// answerFor computes a real top-k answer over a random database.
func answerFor(rng *rand.Rand, query []geo.Point, k int) []gnn.Result {
	return answerForAgg(rng, query, k, gnn.Sum)
}

func answerForAgg(rng *rand.Rand, query []geo.Point, k int, agg gnn.Aggregate) []gnn.Result {
	items := make([]rtree.Item, 2000)
	for i := range items {
		items[i] = rtree.Item{ID: int64(i), P: geo.Point{X: rng.Float64(), Y: rng.Float64()}}
	}
	bf := &gnn.BruteForce{Items: items, Agg: agg}
	return bf.Search(query, k)
}

var aggregates = []gnn.Aggregate{gnn.Sum, gnn.Max, gnn.Min}

func TestSanitizeSingleUserUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q := randomQuery(rng, 1)
	ans := answerFor(rng, q, 8)
	got := defaultConfig(0.05).Sanitize(rng, ans, q)
	if len(got) != len(ans) {
		t.Fatalf("n=1 sanitation truncated to %d", len(got))
	}
}

func TestSanitizeSinglePOIAlwaysSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	q := randomQuery(rng, 4)
	ans := answerFor(rng, q, 1)
	got := defaultConfig(0.5).Sanitize(rng, ans, q)
	if len(got) != 1 {
		t.Fatalf("single-POI answer truncated to %d", len(got))
	}
}

func TestSanitizeReturnsPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	q := randomQuery(rng, 8)
	ans := answerFor(rng, q, 16)
	got := defaultConfig(0.05).Sanitize(rng, ans, q)
	if len(got) < 1 || len(got) > len(ans) {
		t.Fatalf("sanitized length %d outside [1,%d]", len(got), len(ans))
	}
	for i := range got {
		if got[i].Item.ID != ans[i].Item.ID {
			t.Fatalf("sanitized answer is not a prefix at %d", i)
		}
	}
}

// The central guarantee: after sanitation, the colluders' feasible region
// for every target user exceeds θ0 (up to Monte-Carlo noise).
func TestSanitizedAnswerResistsAttack(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cfg := defaultConfig(0.05)
	for trial := 0; trial < 5; trial++ {
		q := randomQuery(rng, 6)
		ans := answerFor(rng, q, 16)
		safe := cfg.Sanitize(rng, ans, q)
		for target := range q {
			theta := cfg.AttackTheta(rand.New(rand.NewSource(int64(trial*10+target))), safe, q, target, 20000)
			// Allow modest slack below θ0 for sampling noise on both sides.
			if theta < cfg.Theta0*0.7 {
				t.Fatalf("trial %d target %d: post-sanitation θ=%v ≪ θ0=%v",
					trial, target, theta, cfg.Theta0)
			}
		}
	}
}

// Conversely the unsanitized full answer usually pins users to a small
// region — i.e. sanitation is actually doing something. We check that the
// sanitizer truncates at least one of several random queries at θ0=0.05.
func TestSanitizeTruncatesSometimes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := defaultConfig(0.05)
	truncated := false
	for trial := 0; trial < 6 && !truncated; trial++ {
		q := randomQuery(rng, 8)
		ans := answerFor(rng, q, 16)
		if len(cfg.Sanitize(rng, ans, q)) < len(ans) {
			truncated = true
		}
	}
	if !truncated {
		t.Fatal("sanitizer never truncated a 16-POI answer at θ0=0.05 over 6 trials")
	}
}

// A larger θ0 is a stronger requirement and can only shorten the prefix
// (Figure 7c).
func TestStrongerTheta0ShortensPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	q := randomQuery(rng, 8)
	ans := answerFor(rng, q, 16)
	prev := len(ans) + 1
	for _, th := range []float64{0.01, 0.05, 0.1, 0.3} {
		got := defaultConfig(th).Sanitize(rand.New(rand.NewSource(42)), ans, q)
		if len(got) > prev {
			t.Fatalf("θ0=%v gave longer prefix (%d) than weaker setting (%d)", th, len(got), prev)
		}
		prev = len(got)
	}
}

func TestSanitizeAllAggregates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := randomQuery(rng, 5)
	items := make([]rtree.Item, 1000)
	for i := range items {
		items[i] = rtree.Item{ID: int64(i), P: geo.Point{X: rng.Float64(), Y: rng.Float64()}}
	}
	for _, agg := range []gnn.Aggregate{gnn.Sum, gnn.Max, gnn.Min} {
		bf := &gnn.BruteForce{Items: items, Agg: agg}
		ans := bf.Search(q, 10)
		cfg := Config{Theta0: 0.05, Space: geo.UnitRect, Agg: agg}
		got := cfg.Sanitize(rng, ans, q)
		if len(got) < 1 {
			t.Fatalf("%v: empty sanitized answer", agg)
		}
	}
}

func TestAttackThetaFullSpaceWithoutInequalities(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	q := randomQuery(rng, 3)
	ans := answerFor(rng, q, 1) // one POI → no inequalities → θ = 1
	cfg := defaultConfig(0.05)
	if theta := cfg.AttackTheta(rng, ans, q, 0, 1000); theta != 1 {
		t.Fatalf("θ with no inequalities = %v, want 1", theta)
	}
}

// The attack region must always contain the target's true location: the
// real location satisfies the true inequalities by construction. Planted as
// the only sample, it must survive every inequality — to the last ulp
// against the costs the engine ranked the answer by.
func TestTrueLocationSatisfiesInequalities(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		for _, agg := range aggregates {
			q := randomQuery(rng, 4)
			ans := answerForAgg(rng, q, 8, agg)
			for target := range q {
				s := Scratch{xs: []float64{q[target].X}, ys: []float64{q[target].Y}}
				s.attack(agg, ans, q, target, target+1)
				if len(s.alive[target]) != 1 {
					t.Fatalf("trial %d %v: true location of user %d excluded by the %d-POI answer's inequalities", trial, agg, target, len(ans))
				}
			}
		}
	}
}

func TestSampleSizeMatchesStats(t *testing.T) {
	cfg := defaultConfig(0.05)
	if got := cfg.SampleSize(); got < 10000 {
		t.Fatalf("N_H = %d implausibly small for θ0=0.05", got)
	}
	// Larger θ0 → fewer samples (Figure 6l's mechanism).
	if defaultConfig(0.1).SampleSize() >= defaultConfig(0.01).SampleSize() {
		t.Fatal("sample size did not shrink with θ0")
	}
}

func TestSanitizePanicsOnBadTheta(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	q := randomQuery(rng, 3)
	ans := answerFor(rng, q, 4)
	for _, th := range []float64{-0.1, 0, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("θ0=%v accepted", th)
				}
			}()
			Config{Theta0: th, Space: geo.UnitRect, Agg: gnn.Sum}.Sanitize(rng, ans, q)
		}()
	}
}

func TestAttackThetaPanicsOnBadTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	q := randomQuery(rng, 3)
	ans := answerFor(rng, q, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("bad target accepted")
		}
	}()
	defaultConfig(0.05).AttackTheta(rng, ans, q, 5, 100)
}

// More users dilute the target's weight in the sum, enlarging the feasible
// region (the Figure 7b effect): θ for n=16 should typically exceed θ for
// n=2 on the same ranked answer length.
func TestMoreUsersLargerRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cfg := defaultConfig(0.05)
	avgTheta := func(n int) float64 {
		total := 0.0
		const trials = 40
		for trial := 0; trial < trials; trial++ {
			q := randomQuery(rng, n)
			ans := answerFor(rng, q, 4)
			total += cfg.AttackTheta(rng, ans, q, 0, 4000)
		}
		return total / trials
	}
	small, large := avgTheta(2), avgTheta(32)
	// The paper reports only a slight rise (Figure 7b); require the averaged
	// effect to be directionally right with Monte-Carlo slack.
	if large < small*0.9 {
		t.Fatalf("θ(n=32)=%v markedly below θ(n=2)=%v; dilution effect missing", large, small)
	}
}

// The deterministic lattice estimator and the Monte-Carlo estimator must
// agree on the region size.
func TestGridThetaMatchesMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cfg := defaultConfig(0.05)
	for trial := 0; trial < 10; trial++ {
		q := randomQuery(rng, 4)
		ans := answerFor(rng, q, 6)
		for target := range q {
			mc := cfg.AttackTheta(rand.New(rand.NewSource(int64(trial))), ans, q, target, 40000)
			grid := cfg.GridTheta(ans, q, target, 200)
			if diff := mc - grid; diff > 0.02 || diff < -0.02 {
				t.Fatalf("trial %d target %d: MC θ=%v vs grid θ=%v", trial, target, mc, grid)
			}
		}
	}
}

func TestGridThetaEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	q := randomQuery(rng, 3)
	one := answerFor(rng, q, 1)
	if got := defaultConfig(0.05).GridTheta(one, q, 0, 10); got != 1 {
		t.Fatalf("single-POI grid θ = %v, want 1", got)
	}
	ans := answerFor(rng, q, 4)
	for _, fn := range []func(){
		func() { defaultConfig(0.05).GridTheta(ans, q, -1, 10) },
		func() { defaultConfig(0.05).GridTheta(ans, q, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic on invalid GridTheta input")
				}
			}()
			fn()
		}()
	}
}

// naiveIneq is inequality t for target u written the obvious way: whether
// F(p_{t-1}) ≤ F(p_t) holds with l_u moved to the point.
func naiveIneq(agg gnn.Aggregate, answer []gnn.Result, query []geo.Point, u, t int) func(geo.Point) bool {
	fold := func(acc, d float64) float64 {
		switch {
		case agg == gnn.Sum:
			return acc + d
		case agg == gnn.Max && d > acc, agg == gnn.Min && d < acc:
			return d
		}
		return acc
	}
	others := func(p geo.Point) float64 {
		acc := 0.0
		if agg == gnn.Min {
			acc = math.Inf(1)
		}
		for j, l := range query {
			if j != u {
				acc = fold(acc, p.Dist(l))
			}
		}
		return acc
	}
	pa, pb := answer[t-1].Item.P, answer[t].Item.P
	parA, parB := others(pa), others(pb)
	return func(x geo.Point) bool { return fold(parA, pa.Dist(x)) <= fold(parB, pb.Dist(x)) }
}

// zThreshold is the paper's fixed-sample test, Eqn 16: H0: θ ≤ θ0 is
// rejected iff more than this many of n uniform points survive.
func zThreshold(c Config, n int) float64 {
	mean := float64(n) * c.Theta0
	return mean + stats.CriticalZ(c.Gamma)*math.Sqrt(mean*(1-c.Theta0))
}

// referenceSanitize is the sanitizer as the paper states it: every target
// user gets N_H points of its own, and each prefix is decided by Eqn 16.
func referenceSanitize(c Config, rng *rand.Rand, answer []gnn.Result, query []geo.Point) []gnn.Result {
	c = c.withDefaults()
	nh := c.SampleSize()
	threshold := zThreshold(c, nh)
	pts := make([][]geo.Point, len(query))
	for u := range pts {
		pts[u] = make([]geo.Point, nh)
		for i := range pts[u] {
			pts[u][i] = geo.Point{X: c.Space.Min.X + rng.Float64()*c.Space.Width(), Y: c.Space.Min.Y + rng.Float64()*c.Space.Height()}
		}
	}
	for t := 1; t < len(answer); t++ {
		for u := range query {
			holds, kept := naiveIneq(c.Agg, answer, query, u, t), pts[u][:0]
			for _, x := range pts[u] {
				if holds(x) {
					kept = append(kept, x)
				}
			}
			pts[u] = kept
			if float64(len(kept)) <= threshold {
				return answer[:t]
			}
		}
	}
	return answer
}

// fixedPrefix is the length of the prefix Eqn 16 keeps over the first N_H
// points of the stream Sanitize draws from seed, shared by the targets: the
// fixed-sample decision the sequential test stands in for.
func fixedPrefix(c Config, seed int64, answer []gnn.Result, query []geo.Point) int {
	c = c.withDefaults()
	nh := c.SampleSize()
	threshold := zThreshold(c, nh)
	var s Scratch
	s.draw(rand.New(rand.NewSource(seed)), c.Space, nh)
	for t := 1; t < len(answer); t++ {
		s.attack(c.Agg, answer[:t+1], query, 0, len(query))
		for u := range query {
			if float64(len(s.alive[u])) <= threshold {
				return t
			}
		}
	}
	return len(answer)
}

// naiveSurvivors draws the N_H points of the stream Sanitize draws from seed
// and returns, at [t][u], the indices of those satisfying inequalities
// 1, …, t for target u, filtered one point at a time.
func naiveSurvivors(c Config, seed int64, answer []gnn.Result, query []geo.Point) [][][]int32 {
	var s Scratch
	s.draw(rand.New(rand.NewSource(seed)), c.Space, c.SampleSize())
	surv := make([][][]int32, len(answer))
	for t := 1; t < len(answer); t++ {
		surv[t] = make([][]int32, len(query))
		for u := range query {
			holds, src := naiveIneq(c.Agg, answer, query, u, t), s.iota(len(s.xs))
			if t > 1 {
				src = surv[t-1][u]
			}
			for _, i := range src {
				if holds(geo.Point{X: s.xs[i], Y: s.ys[i]}) {
					surv[t][u] = append(surv[t][u], i)
				}
			}
		}
	}
	return surv
}

// naiveSequential is the length of the prefix the sequential test keeps,
// written the obvious way over the survivors: test (t, u) walks its
// Bernoulli stream a point at a time, checks both count lines after every
// point, and stops at the first it crosses or at the cap.
func naiveSequential(test stats.SPRT, surv [][][]int32) int {
	for t := 1; t < len(surv); t++ {
		for _, list := range surv[t] {
			safe, s := false, 0
			for n := 1; n <= test.Cap; n++ {
				if s < len(list) && int(list[s]) == n-1 {
					s++
				}
				if s >= test.MinReject(n) {
					safe = true
					break
				}
				if s <= test.MaxAccept(n) {
					break
				}
			}
			if !safe {
				return t
			}
		}
	}
	return len(surv)
}

// checkAgainstNaive filters the N_H points of the stream drawn from seed the
// naive way for every target and inequality. The fixed-sample evaluator
// behind AttackTheta and GridTheta must keep the same points for every
// target after 1, 2, 4, 8, … and all inequalities, and Sanitize the prefix
// the naive sequential test over those points keeps.
func checkAgainstNaive(c Config, seed int64, answer []gnn.Result, query []geo.Point) error {
	c = c.withDefaults()
	surv := naiveSurvivors(c, seed, answer, query)
	var s Scratch
	s.draw(rand.New(rand.NewSource(seed)), c.Space, c.SampleSize())
	for t := 1; t < len(answer); t++ {
		if t&(t-1) != 0 && t != len(answer)-1 {
			continue
		}
		s.attack(c.Agg, answer[:t+1], query, 0, len(query))
		for u, want := range surv[t] {
			if !slices.Equal(s.alive[u], want) {
				return fmt.Errorf("target %d after %d inequalities: %d survivors, naive filter has %d", u, t, len(s.alive[u]), len(want))
			}
		}
	}
	want := naiveSequential(stats.NewSPRT(c.Theta0, c.Gamma, c.Eta, c.Phi), surv)
	got := c.Sanitize(rand.New(rand.NewSource(seed)), answer, query)
	if len(got) != want || &got[0] != &answer[0] {
		return fmt.Errorf("Sanitize kept %d POIs, the naive sequential test over the same stream keeps %d", len(got), want)
	}
	return nil
}

func TestFilterMatchesNaive(t *testing.T) {
	t.Parallel() // with TestPrivacyIVMissRate: the two are most of the package's run
	rng := rand.New(rand.NewSource(31))
	for _, agg := range aggregates {
		for _, n := range []int{2, 8, 32} {
			for _, k := range []int{2, 8, 32} {
				for _, theta0 := range []float64{0.01, 0.05, 0.1} {
					q := randomQuery(rng, n)
					ans := answerForAgg(rng, q, k, agg)
					cfg := Config{Theta0: theta0, Space: geo.UnitRect, Agg: agg}
					if err := checkAgainstNaive(cfg, rng.Int63(), ans, q); err != nil {
						t.Fatalf("%v n=%d k=%d θ0=%v: %v", agg, n, k, theta0, err)
					}
				}
			}
		}
	}
}

func FuzzSanitize(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(8), uint8(0), uint8(5))
	f.Add(int64(2), uint8(2), uint8(32), uint8(1), uint8(1))
	f.Add(int64(3), uint8(32), uint8(2), uint8(2), uint8(10))
	f.Fuzz(func(t *testing.T, seed int64, n, k, agg, theta uint8) {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			Theta0: float64(1+theta%50) / 100, // 0.01 … 0.50
			Agg:    aggregates[int(agg)%len(aggregates)],
		}
		q := randomQuery(rng, 2+int(n)%15)
		ans := answerForAgg(rng, q, 1+int(k)%16, cfg.Agg)
		if len(ans) == 1 {
			if got := cfg.Sanitize(rng, ans, q); len(got) != 1 {
				t.Fatalf("one-POI answer became %d POIs", len(got))
			}
			return
		}
		if err := checkAgainstNaive(cfg, seed, ans, q); err != nil {
			t.Fatalf("%v n=%d k=%d θ0=%v: %v", cfg.Agg, len(q), len(ans), cfg.Theta0, err)
		}
	})
}

// The sequential test and the fixed-sample test it replaced disagree only
// where θ sits near θ0: over a fixed corpus, reading the same stream, they
// keep the same prefix for at least 95% of answers and the same number of
// POIs on average to within 0.05.
func TestSequentialTracksFixedSample(t *testing.T) {
	t.Parallel()
	const k, groups = 8, 30 // per (aggregate, n): 270 answers
	same, total, keptSeq, keptFixed := 0, 0, 0, 0
	for a, agg := range aggregates {
		cfg := Config{Theta0: 0.05, Space: geo.UnitRect, Agg: agg}
		for _, n := range []int{2, 4, 8} {
			for g := range groups {
				seed := int64(7000000 + a*100000 + n*1000 + g)
				rng := rand.New(rand.NewSource(seed))
				q := randomQuery(rng, n)
				ans := answerForAgg(rng, q, k, agg)
				seq := len(cfg.Sanitize(rand.New(rand.NewSource(seed)), ans, q))
				fixed := fixedPrefix(cfg, seed, ans, q)
				total++
				keptSeq += seq
				keptFixed += fixed
				if seq == fixed {
					same++
				}
			}
		}
	}
	share := float64(same) / float64(total)
	delta := float64(keptSeq-keptFixed) / float64(total)
	t.Logf("%d answers: %.1f%% identical prefixes; mean kept POIs %.3f sequential, %.3f fixed-sample", total, 100*share, float64(keptSeq)/float64(total), float64(keptFixed)/float64(total))
	if share < 0.95 || math.Abs(delta) > 0.05 {
		t.Errorf("sequential test strays from the fixed-sample test: %.1f%% identical prefixes (want ≥ 95%%), mean kept moved by %+.3f (want within ±0.05)", 100*share, delta)
	}
}

// The prefix is a function of (config, seed, answer, query) alone: a scratch
// that has held larger, smaller and differently shaped attacks gives what a
// fresh one gives.
func TestScratchHistoryDoesNotReachAnswer(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var reused Scratch
	for i, theta0 := range []float64{0.05, 0.01, 0.1, 0.05, 0.3, 0.01} {
		agg := aggregates[i%len(aggregates)]
		q := randomQuery(rng, 2+rng.Intn(12))
		ans := answerForAgg(rng, q, 2+rng.Intn(15), agg)
		cfg := Config{Theta0: theta0, Space: geo.UnitRect, Agg: agg}
		seed := rng.Int63()
		fresh := cfg.Sanitize(rand.New(rand.NewSource(seed)), ans, q)
		again := cfg.Sanitize(rand.New(rand.NewSource(seed)), ans, q)
		with := cfg.SanitizeWith(&reused, rand.New(rand.NewSource(seed)), ans, q)
		if len(again) != len(fresh) || len(with) != len(fresh) {
			t.Fatalf("call %d: fresh scratch keeps %d POIs, the same seed again %d, a reused scratch %d", i, len(fresh), len(again), len(with))
		}
	}
}

type missTally struct {
	answers, kept, scored, misses int
	minTheta                      float64 // smallest lattice θ among the scored targets
}

func (m missTally) rate() float64 { return float64(m.misses) / float64(m.scored) }

// wilson is the 95% Wilson score interval of the miss rate.
func (m missTally) wilson() (lo, hi float64) {
	const z = 1.96
	n, p := float64(m.scored), m.rate()
	mid := (p + z*z/(2*n)) / (1 + z*z/n)
	half := z * math.Sqrt(p*(1-p)/n+z*z/(4*n*n)) / (1 + z*z/n)
	return max(0, mid-half), mid + half
}

// Privacy IV, measured: how often a sanitised answer longer than one POI
// still pins some target user to a region smaller than θ0, scored with the
// deterministic lattice so neither sanitizer marks its own work, swept over
// θ0 and k. The sequential test bounds each test's type I error by γ
// exactly (Ville), so its Wilson upper bound must stay within γ in every
// cell. Beside it runs the paper's sanitizer, independent samples per
// target and Eqn 16's fixed-sample test, which must not miss significantly
// less often.
func TestPrivacyIVMissRate(t *testing.T) {
	t.Parallel()
	const grid = 200
	var seqAll, refAll missTally
	for _, theta0 := range []float64{0.01, 0.05, 0.1} {
		groups := 6 // per (aggregate, n): 54 answers a cell
		if theta0 == 0.01 {
			groups = 4 // the reference's N_H is 63,225 points per target here
		}
		for _, k := range []int{2, 8, 32} {
			seq, ref := missTally{minTheta: 1}, missTally{minTheta: 1}
			for a, agg := range aggregates {
				cfg := Config{Theta0: theta0, Space: geo.UnitRect, Agg: agg}
				for _, n := range []int{2, 4, 8} {
					for g := range groups {
						seed := int64(a*1000000 + n*1000 + k*20 + g)
						rng := rand.New(rand.NewSource(seed))
						q := randomQuery(rng, n)
						ans := answerForAgg(rng, q, k, agg)
						score := func(m *missTally, safe []gnn.Result) {
							m.answers++
							m.kept += len(safe)
							if len(safe) < 2 {
								return
							}
							for u := range q {
								m.scored++
								theta := cfg.GridTheta(safe, q, u, grid)
								m.minTheta = math.Min(m.minTheta, theta)
								if theta < theta0 {
									m.misses++
								}
							}
						}
						score(&seq, cfg.Sanitize(rand.New(rand.NewSource(seed)), ans, q))
						score(&ref, referenceSanitize(cfg, rand.New(rand.NewSource(seed)), ans, q))
					}
				}
			}
			for _, r := range []struct {
				name string
				m    missTally
			}{{"sequential", seq}, {"fixed-sample reference", ref}} {
				lo, hi := r.m.wilson()
				t.Logf("θ0=%v k=%d %s: %d answers, mean kept POIs %.2f; %d of %d scored targets under θ0: miss rate %.4f, 95%% Wilson [%.4f, %.4f], smallest θ %.4f",
					theta0, k, r.name, r.m.answers, float64(r.m.kept)/float64(r.m.answers), r.m.misses, r.m.scored, r.m.rate(), lo, hi, r.m.minTheta)
			}
			if _, hi := seq.wilson(); hi > DefaultGamma {
				t.Errorf("θ0=%v k=%d: sequential miss rate %.4f (%d of %d) has Wilson upper bound %.4f above γ=%v", theta0, k, seq.rate(), seq.misses, seq.scored, hi, DefaultGamma)
			}
			if lo, hi := ref.wilson(); lo > DefaultGamma {
				t.Errorf("θ0=%v k=%d: reference miss rate %.4f is above γ=%v by more than its interval [%.4f, %.4f]", theta0, k, ref.rate(), DefaultGamma, lo, hi)
			}
			seqAll.scored, seqAll.misses = seqAll.scored+seq.scored, seqAll.misses+seq.misses
			refAll.scored, refAll.misses = refAll.scored+ref.scored, refAll.misses+ref.misses
		}
	}
	// One-sided two-proportion test over the whole sweep, 5% level: is the
	// sequential miss rate above the reference's?
	ns, nr := float64(seqAll.scored), float64(refAll.scored)
	pooled := float64(seqAll.misses+refAll.misses) / (ns + nr)
	if se := math.Sqrt(pooled * (1 - pooled) * (1/ns + 1/nr)); se > 0 {
		if z := (seqAll.rate() - refAll.rate()) / se; z > 1.645 {
			t.Errorf("sequential miss rate %.4f exceeds the reference's %.4f (z=%.2f > 1.645)", seqAll.rate(), refAll.rate(), z)
		}
	}
}

// defaultFixture is the sanitation work of one query at the paper's
// defaults as LSP.Process sees it: 101 candidates of n=8 users, each with
// its k=8 answer over a 20,000-POI database.
func defaultFixture() (queries [][]geo.Point, answers [][]gnn.Result) {
	const candidates, n, k = 101, 8, 8
	rng := rand.New(rand.NewSource(51))
	items := make([]rtree.Item, 20000)
	for i := range items {
		items[i] = rtree.Item{ID: int64(i), P: geo.Point{X: rng.Float64(), Y: rng.Float64()}}
	}
	bf := &gnn.BruteForce{Items: items, Agg: gnn.Sum}
	queries = make([][]geo.Point, candidates)
	answers = make([][]gnn.Result, candidates)
	for t := range queries {
		queries[t] = randomQuery(rng, n)
		answers[t] = bf.Search(queries[t], k)
	}
	return queries, answers
}

// The sequential test's saving, counted rather than timed: on the default
// fixture a candidate draws on average at most a third of the N_H points
// every candidate drew under the fixed-sample test.
func TestSanitizeDrawsAThirdOfNH(t *testing.T) {
	queries, answers := defaultFixture()
	cfg := defaultConfig(0.05)
	var s Scratch
	drawn := 0
	for c := range queries {
		cfg.SanitizeWith(&s, rand.New(rand.NewSource(int64(1+c))), answers[c], queries[c])
		drawn += len(s.xs)
	}
	mean, nh := float64(drawn)/float64(len(queries)), cfg.SampleSize()
	t.Logf("mean points drawn per candidate: %.0f of N_H=%d (%.1f%%)", mean, nh, 100*mean/float64(nh))
	if mean > float64(nh)/3 {
		t.Errorf("mean points drawn per candidate %.0f, above N_H/3 = %.0f", mean, float64(nh)/3)
	}
}

var benchKept int

// BenchmarkSanitizeDefault is the sanitation of one query at the paper's
// defaults as LSP.Process does it: the default fixture, θ0=0.05, candidate
// t seeded with 1+t, one scratch for the query. samples/op is the points
// drawn over the 101 candidates.
func BenchmarkSanitizeDefault(b *testing.B) {
	queries, answers := defaultFixture()
	cfg := defaultConfig(0.05)
	drawn := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := new(Scratch)
		for t := range queries {
			benchKept += len(cfg.SanitizeWith(s, rand.New(rand.NewSource(int64(1+t))), answers[t], queries[t]))
			drawn += len(s.xs)
		}
	}
	b.ReportMetric(float64(drawn)/float64(b.N), "samples/op")
}
