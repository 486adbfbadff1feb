package core

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"ppgnn/internal/geo"
	"ppgnn/internal/gnn"
	"ppgnn/internal/paillier"
	"ppgnn/internal/sanitize"
)

// TestPrivacyI_RealPositionUniform verifies the 1/d guarantee of Theorem
// 4.3: across many query generations, the position of each user's real
// location within their location set is uniform over [0, d), so the LSP's
// best guess succeeds with probability 1/d.
func TestPrivacyI_RealPositionUniform(t *testing.T) {
	p := testParams(4, VariantPPGNN)
	locs := randomLocations(rand.New(rand.NewSource(1)), 4)
	g, err := NewGroup(p, locs, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, p.D)
	const trials = 3000
	for trial := 0; trial < trials; trial++ {
		_, lms, err := g.BuildQuery(nil)
		if err != nil {
			t.Fatal(err)
		}
		// Find the real location's position for user 0.
		found := -1
		for i, loc := range lms[0].Set {
			if loc == locs[0] {
				found = i
				break
			}
		}
		if found == -1 {
			t.Fatal("real location missing from the location set")
		}
		counts[found]++
	}
	// Chi-square test against uniform at a generous threshold: with d-1
	// degrees of freedom (d=6 here), chi2 < 30 keeps false failures rare.
	expected := float64(trials) / float64(p.D)
	chi2 := 0.0
	for _, c := range counts {
		diff := float64(c) - expected
		chi2 += diff * diff / expected
	}
	if chi2 > 30 {
		t.Fatalf("real-position distribution non-uniform: counts=%v chi2=%.1f", counts, chi2)
	}
}

// TestPrivacyII_CandidateCount verifies that the LSP always evaluates at
// least δ candidate queries, so its posterior over the real query is at
// most 1/δ.
func TestPrivacyII_CandidateCount(t *testing.T) {
	lsp := testLSP(500)
	for _, n := range []int{1, 2, 5, 8} {
		p := testParams(n, VariantPPGNN)
		if n == 1 {
			p.Delta = p.D
		}
		p.NoSanitize = true
		rng := rand.New(rand.NewSource(int64(n)))
		g, err := NewGroup(p, randomLocations(rng, n), rng)
		if err != nil {
			t.Fatal(err)
		}
		q, lms, err := g.BuildQuery(nil)
		if err != nil {
			t.Fatal(err)
		}
		ordered := make([][]geo.Point, n)
		for _, lm := range lms {
			ordered[lm.UserID] = lm.Set
		}
		cands, err := lsp.candidates(q, ordered)
		if err != nil {
			t.Fatal(err)
		}
		if len(cands) < p.Delta {
			t.Fatalf("n=%d: LSP sees %d candidates < δ=%d", n, len(cands), p.Delta)
		}
		// The real query must be among them (otherwise the protocol could
		// not return the real answer).
		found := false
		for _, c := range cands {
			match := true
			for u := range c {
				if c[u] != g.Locations[u] {
					match = false
					break
				}
			}
			if match {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("n=%d: real query not among the candidates", n)
		}
	}
}

// TestPrivacyIII_AnswerBounded verifies the pay-per-result property: the
// decrypted answer never contains more than the k requested POIs, and every
// returned POI belongs to the true top-k of the real query.
func TestPrivacyIII_AnswerBounded(t *testing.T) {
	lsp := testLSP(2000)
	rng := rand.New(rand.NewSource(5))
	p := testParams(4, VariantPPGNN)
	p.IncludeIDs = true
	locs := randomLocations(rng, 4)
	g, err := NewGroup(p, locs, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Run(LocalService{LSP: lsp}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) > p.K {
		t.Fatalf("answer has %d POIs > k=%d", len(res.Records), p.K)
	}
	truth := plainAnswer(lsp, locs, p.K, p.Agg)
	inTruth := map[int64]bool{}
	for _, r := range truth {
		inTruth[r.Item.ID] = true
	}
	for _, rec := range res.Records {
		if !inTruth[int64(rec.ID)] {
			t.Fatalf("answer leaked POI %d outside the requested top-%d", rec.ID, p.K)
		}
	}
}

// TestPrivacyIV_EndToEnd runs the complete protocol and then mounts the
// full-collusion inequality attack of Section 5.1 on the delivered answer:
// every target user must retain a feasible region of relative size > θ0
// (with Monte-Carlo slack).
func TestPrivacyIV_EndToEnd(t *testing.T) {
	lsp := testLSP(3000)
	p := testParams(5, VariantPPGNN)
	p.K = 12
	p.Theta0 = 0.05
	rng := rand.New(rand.NewSource(8))
	locs := randomLocations(rng, 5)
	g, err := NewGroup(p, locs, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Run(LocalService{LSP: lsp}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the colluders' view: the ranked answer points.
	answer := make([]gnn.Result, len(res.Points))
	for i, pt := range res.Points {
		answer[i].Item.P = pt
	}
	cfg := sanitize.Config{Theta0: p.Theta0, Space: p.Space, Agg: p.Agg}
	for target := range locs {
		theta := cfg.AttackTheta(rand.New(rand.NewSource(int64(100+target))), answer, locs, target, 20000)
		if theta < p.Theta0*0.7 {
			t.Fatalf("target %d: post-protocol attack region %.4f ≪ θ0=%.2f", target, theta, p.Theta0)
		}
	}
}

// TestPrivacyIV_UnsanitizedIsVulnerable is the negative control: with
// sanitation disabled (PPGNN-NAS) and a long answer, the attack usually
// succeeds against at least one user, demonstrating that the sanitizer is
// actually necessary.
func TestPrivacyIV_UnsanitizedIsVulnerable(t *testing.T) {
	lsp := testLSP(3000)
	p := testParams(5, VariantPPGNN)
	p.K = 16
	p.Theta0 = 0.05
	p.NoSanitize = true
	vulnerableSomewhere := false
	for trial := 0; trial < 4 && !vulnerableSomewhere; trial++ {
		rng := rand.New(rand.NewSource(int64(20 + trial)))
		locs := randomLocations(rng, 5)
		g, err := NewGroup(p, locs, rng)
		if err != nil {
			t.Fatal(err)
		}
		res, err := g.Run(LocalService{LSP: lsp}, nil)
		if err != nil {
			t.Fatal(err)
		}
		answer := make([]gnn.Result, len(res.Points))
		for i, pt := range res.Points {
			answer[i].Item.P = pt
		}
		cfg := sanitize.Config{Theta0: p.Theta0, Space: p.Space, Agg: p.Agg}
		for target := range locs {
			theta := cfg.AttackTheta(rand.New(rand.NewSource(int64(target))), answer, locs, target, 10000)
			if theta <= p.Theta0 {
				vulnerableSomewhere = true
				break
			}
		}
	}
	if !vulnerableSomewhere {
		t.Fatal("unsanitized 16-POI answers never enabled the inequality attack; the Privacy IV tests prove nothing")
	}
}

// TestIndicatorCacheNeverRepeatsCiphertexts sweeps the closed contract
// of the shared constant cache at the wire level (ISSUE 10): with
// EncCache enabled, repeated queries re-encrypt the same tiny constant
// set through the cache, yet no ciphertext the LSP ever receives —
// within a vector, across vectors, across queries — repeats byte for
// byte. A repeat would hand the LSP plaintext-equality structure that
// semantic security is supposed to hide; rerandomize-on-hit is what
// prevents it.
func TestIndicatorCacheNeverRepeatsCiphertexts(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	locs := randomLocations(rng, 4)
	for _, variant := range []Variant{VariantPPGNN, VariantOPT} {
		p := testParams(4, variant)
		g, err := NewGroup(p, locs, rng)
		if err != nil {
			t.Fatal(err)
		}
		g.EncCache = paillier.NewEncCache(256)
		seen := map[string]bool{}
		total := 0
		for round := 0; round < 3; round++ {
			q, _, err := g.BuildQuery(nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range append(append(append([]*big.Int{}, q.V...), q.V1...), q.V2...) {
				if key := string(c.Bytes()); seen[key] {
					t.Fatalf("%v round %d: indicator ciphertext repeated on the wire", variant, round)
				} else {
					seen[key] = true
				}
				total++
			}
		}
		if total == 0 || g.EncCache.Len() == 0 {
			t.Fatalf("%v: sweep vacuous (total=%d, cache len=%d)", variant, total, g.EncCache.Len())
		}
	}
}

// TestIndicatorVectorIsEncryptedAndDense checks what the LSP receives: the
// indicator vectors are ciphertexts (no zero/one plaintext structure leaks)
// and have exactly the expected lengths for each variant.
func TestIndicatorVectorShape(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	locs := randomLocations(rng, 4)
	for _, variant := range []Variant{VariantPPGNN, VariantOPT, VariantNaive} {
		p := testParams(4, variant)
		g, err := NewGroup(p, locs, rng)
		if err != nil {
			t.Fatal(err)
		}
		q, _, err := g.BuildQuery(nil)
		if err != nil {
			t.Fatal(err)
		}
		switch variant {
		case VariantPPGNN:
			if len(q.V) != g.DeltaPrime() {
				t.Fatalf("PPGNN indicator length %d != δ'=%d", len(q.V), g.DeltaPrime())
			}
		case VariantOPT:
			omega := OptimalOmega(g.DeltaPrime())
			cols := (g.DeltaPrime() + omega - 1) / omega
			if len(q.V2) != omega || len(q.V1) != cols {
				t.Fatalf("OPT lengths v1=%d v2=%d, want %d and %d", len(q.V1), len(q.V2), cols, omega)
			}
			// ω ≈ √(δ'/2): total ciphertext load is O(√δ').
			if float64(len(q.V1)+len(q.V2)) > 4*math.Sqrt(float64(g.DeltaPrime()))+4 {
				t.Fatalf("OPT ciphertext load %d not O(√δ')", len(q.V1)+len(q.V2))
			}
		case VariantNaive:
			if len(q.V) != p.Delta {
				t.Fatalf("Naive indicator length %d != δ=%d", len(q.V), p.Delta)
			}
		}
		// Every ciphertext must be a nontrivial group element (semantic
		// security means no plaintext 0/1 visible).
		for _, c := range append(append(append([]*big.Int{}, q.V...), q.V1...), q.V2...) {
			if c.BitLen() < p.KeyBits/2 {
				t.Fatalf("%v: suspiciously small ciphertext (%d bits)", variant, c.BitLen())
			}
		}
	}
}

// TestNilRngCoordinatorsDrawDifferentPlans builds two coordinators with no
// rng back to back. Each must key its own stream from OS entropy, so
// their plans — segment and hidden positions, the secrets of Privacy II —
// differ; two clock-seeded streams started in the same tick would not.
func TestNilRngCoordinatorsDrawDifferentPlans(t *testing.T) {
	p := testParams(4, VariantPPGNN)
	draw := func() []int {
		c, err := newCoordinator(p, geo.Point{X: 0.5, Y: 0.5}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var seq []int
		for i := 0; i < 16; i++ {
			plan, err := c.Plan(p.N)
			if err != nil {
				t.Fatal(err)
			}
			seq = append(seq, plan.seg)
			seq = append(seq, plan.xs...)
		}
		return seq
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			return
		}
	}
	t.Fatalf("two nil-rng coordinators drew the same 16 plans: %v", a)
}
