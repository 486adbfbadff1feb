package core

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"

	"ppgnn/internal/paillier"
	"ppgnn/internal/parallel"
)

// TestCoalescedSessionsByteIdentical is the ISSUE 10 acceptance pin:
// queries from many concurrent sessions processed through one shared
// Coalescer (width > 1, so tasks from different sessions really mix in
// shared batches) return encrypted answers byte-identical to the same
// queries processed serially on the uncoalesced LSP. Run under -race
// this also hammers the coalescer's slot isolation. The set-up pins the
// uncoalesced half of the same contract: pool width never reaches the
// answer bytes.
func TestCoalescedSessionsByteIdentical(t *testing.T) {
	lsp := testLSP(1500)
	lsp.Workers = 4
	serial, wide := *lsp, *lsp
	serial.Workers = 1
	wide.Workers = -1 // GOMAXPROCS
	co := parallel.NewCoalescer(4, parallel.CoalesceOptions{})
	defer co.Close()
	clsp := lsp.WithCoalescer(co)
	if !clsp.Coalesce.Pool().Coalesced() {
		t.Fatal("WithCoalescer copy does not submit to the coalescer")
	}
	if lsp.Coalesce != nil {
		t.Fatal("WithCoalescer mutated the original LSP")
	}

	type session struct {
		q    *QueryMsg
		locs []*LocationMsg
		want *AnswerMsg
	}
	variants := []Variant{
		VariantPPGNN, VariantOPT, VariantNaive,
		VariantPPGNN, VariantOPT, VariantPPGNN,
	}
	sessions := make([]*session, len(variants))
	for i, v := range variants {
		rng := rand.New(rand.NewSource(int64(40 + i)))
		p := testParams(3, v)
		g, err := NewGroup(p, randomLocations(rng, 3), rng)
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		q, locs, err := g.BuildQuery(nil)
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		want, err := lsp.Process(q, locs, nil)
		if err != nil {
			t.Fatalf("session %d uncoalesced: %v", i, err)
		}
		wantBytes := want.Marshal()
		for _, l := range []*LSP{&serial, &wide} {
			ans, err := l.Process(q, locs, nil)
			if err != nil {
				t.Fatalf("session %d Workers=%d: %v", i, l.Workers, err)
			}
			if !bytes.Equal(ans.Marshal(), wantBytes) {
				t.Fatalf("session %d: answer at Workers=%d differs from Workers=%d", i, l.Workers, lsp.Workers)
			}
		}
		sessions[i] = &session{q: q, locs: locs, want: want}
	}

	// Replay every session concurrently through the coalesced LSP, a few
	// rounds so size- and deadline-triggered flushes both occur.
	for round := 0; round < 3; round++ {
		got := make([]*AnswerMsg, len(sessions))
		errs := make([]error, len(sessions))
		var wg sync.WaitGroup
		for i, s := range sessions {
			wg.Add(1)
			go func(i int, s *session) {
				defer wg.Done()
				got[i], errs[i] = clsp.Process(s.q, s.locs, nil)
			}(i, s)
		}
		wg.Wait()
		for i, s := range sessions {
			if errs[i] != nil {
				t.Fatalf("round %d session %d: %v", round, i, errs[i])
			}
			if got[i].Degree != s.want.Degree || len(got[i].Cts) != len(s.want.Cts) {
				t.Fatalf("round %d session %d: answer shape (deg %d, %d cts) != (deg %d, %d cts)",
					round, i, got[i].Degree, len(got[i].Cts), s.want.Degree, len(s.want.Cts))
			}
			for j := range s.want.Cts {
				if got[i].Cts[j].Cmp(s.want.Cts[j]) != 0 {
					t.Fatalf("round %d session %d ct %d: coalesced answer differs from uncoalesced", round, i, j)
				}
			}
		}
	}
}

// TestLSPRerandPools wires a PoolSet into a rerandomizing LSP: answers
// still decrypt to the true result, the pool keyed by the session's
// wire-parsed public key maps onto the pool prefilled under the
// client's own key object (fingerprint keying), and pooled factors are
// actually consumed.
func TestLSPRerandPools(t *testing.T) {
	for _, variant := range []Variant{VariantPPGNN, VariantOPT} {
		lsp := testLSP(1500)
		lsp.Rerandomize = true
		ps := paillier.NewPoolSet(paillier.PoolSetConfig{})
		lsp.RerandPools = ps
		defer ps.Close()

		rng := rand.New(rand.NewSource(5))
		p := testParams(3, variant)
		p.NoSanitize = true
		locs := randomLocations(rng, 3)
		g, err := NewGroup(p, locs, rng)
		if err != nil {
			t.Fatal(err)
		}
		degree := 1
		if variant == VariantOPT {
			degree = 2
		}
		// Prefill under the client's key object; the LSP will look the
		// pool up via the re-parsed wire key.
		pre, err := ps.For(&g.Key.PublicKey, degree)
		if err != nil {
			t.Fatal(err)
		}
		if err := pre.Fill(nil, 32); err != nil {
			t.Fatal(err)
		}
		res, err := g.Run(LocalService{LSP: lsp}, nil)
		if err != nil {
			t.Fatalf("%v: %v", variant, err)
		}
		want := plainAnswer(lsp, locs, p.K, p.Agg)
		for i := range want {
			if res.Points[i].Dist(want[i].Item.P) > 1e-6 {
				t.Fatalf("%v rank %d: rerandomized answer %v != %v", variant, i, res.Points[i], want[i].Item.P)
			}
		}
		if pre.Taken() == 0 {
			t.Fatalf("%v: rerandomization consumed no pooled factors", variant)
		}
		if ps.Pools() != 1 {
			t.Fatalf("%v: %d pools, want 1 (wire key must map onto the prefilled pool)", variant, ps.Pools())
		}
	}
}

// TestGroupRefillAndCache runs sustained queries with a background
// refiller and the shared constant cache on the client side: results
// stay exact, the refiller feeds pooled factors to later queries, and
// the cache serves hits after the first query.
func TestGroupRefillAndCache(t *testing.T) {
	lsp := testLSP(1500)
	rng := rand.New(rand.NewSource(12))
	p := testParams(3, VariantPPGNN)
	p.NoSanitize = true
	locs := randomLocations(rng, 3)
	g, err := NewGroup(p, locs, rng)
	if err != nil {
		t.Fatal(err)
	}
	g.EncCache = paillier.NewEncCache(256)
	stop, err := g.StartRefill(paillier.RefillerOptions{
		Min: 32, Interval: time.Millisecond, MaxChunk: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	// Let the refiller reach its floor before querying, so the queries
	// observably draw pooled factors.
	for deadline := time.Now().Add(10 * time.Second); g.pre[0].Size() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("refiller never filled the pool")
		}
		time.Sleep(time.Millisecond)
	}
	want := plainAnswer(lsp, locs, p.K, p.Agg)
	for round := 0; round < 3; round++ {
		res, err := g.Run(LocalService{LSP: lsp}, nil)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i := range want {
			if res.Points[i].Dist(want[i].Item.P) > 1e-6 {
				t.Fatalf("round %d rank %d: %v != %v", round, i, res.Points[i], want[i].Item.P)
			}
		}
	}
	if g.EncCache.Len() == 0 {
		t.Fatal("indicator encryptions never populated the constant cache")
	}
	if g.pre[0].Taken() == 0 {
		t.Fatal("refilled pool was never drawn from")
	}
	// Stop is idempotent and the group keeps working afterwards.
	stop()
	if _, err := g.Run(LocalService{LSP: lsp}, nil); err != nil {
		t.Fatal(err)
	}
}
