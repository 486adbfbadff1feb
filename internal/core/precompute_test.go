package core

import (
	"math/rand"
	"testing"

	"ppgnn/internal/cost"
	"ppgnn/internal/paillier"
)

// Precomputed randomness must not change answers, must drain the pool, and
// must shift encryption work offline (the enc1 vs enc1-pooled op counters)
// — under a threshold key as under a sole one, the pools holding factors
// for the public key either way.
func TestGroupPrecompute(t *testing.T) {
	lsp := testLSP(1500)
	for _, tc := range []struct {
		variant   Variant
		threshold int // t of a (t, 3) key; 0 = sole key
	}{{VariantPPGNN, 0}, {VariantOPT, 0}, {VariantPPGNN, 2}} {
		variant := tc.variant
		p := testParams(3, variant)
		if tc.threshold > 0 {
			p = thresholdTestParams(3, variant)
		}
		p.NoSanitize = true
		locs := randomLocations(rand.New(rand.NewSource(3)), 3)
		newGroup := func() (g *Group) {
			var err error
			if rng := rand.New(rand.NewSource(7)); tc.threshold > 0 {
				g, err = NewThresholdGroup(p, locs, rng, tc.threshold)
			} else {
				g, err = NewGroup(p, locs, rng)
			}
			if err != nil {
				t.Fatal(err)
			}
			return g
		}

		resPlain, err := newGroup().Run(LocalService{LSP: lsp}, nil)
		if err != nil {
			t.Fatal(err)
		}

		pooled := newGroup()
		if _, err := pooled.Precompute(pooled.DeltaPrime() + 8); err != nil {
			t.Fatal(err)
		}
		var m cost.Meter
		resPooled, err := pooled.Run(LocalService{LSP: lsp, Meter: &m}, &m)
		if err != nil {
			t.Fatal(err)
		}

		if len(resPlain.Points) != len(resPooled.Points) {
			t.Fatalf("%v: pooled answer length differs", variant)
		}
		for i := range resPlain.Points {
			if resPlain.Points[i] != resPooled.Points[i] {
				t.Fatalf("%v: pooled answer differs at rank %d", variant, i)
			}
		}
		ops := m.Snapshot().Ops
		if ops["enc1-pooled"] == 0 {
			t.Fatalf("%v: no pooled encryptions recorded: %v", variant, ops)
		}
		if ops["enc1"] != 0 {
			t.Fatalf("%v: %d online ε1 encryptions despite a filled pool", variant, ops["enc1"])
		}
		if variant == VariantOPT && ops["enc2-pooled"] == 0 {
			t.Fatalf("OPT: no pooled ε2 encryptions: %v", ops)
		}
		stop, err := pooled.StartRefill(paillier.RefillerOptions{Min: 1})
		if err != nil {
			t.Fatalf("%v threshold=%d: StartRefill: %v", variant, tc.threshold, err)
		}
		stop()
	}
}

// An underfilled pool falls back to online encryption mid-vector without
// corrupting the query.
func TestGroupPrecomputePartialPool(t *testing.T) {
	lsp := testLSP(800)
	p := testParams(2, VariantPPGNN)
	p.NoSanitize = true
	locs := randomLocations(rand.New(rand.NewSource(4)), 2)
	g, err := NewGroup(p, locs, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Precompute(3); err != nil { // far fewer than δ'
		t.Fatal(err)
	}
	var m cost.Meter
	res, err := g.Run(LocalService{LSP: lsp, Meter: &m}, &m)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("empty answer")
	}
	ops := m.Snapshot().Ops
	if ops["enc1-pooled"] != 3 {
		t.Fatalf("pooled count %d, want 3", ops["enc1-pooled"])
	}
	if ops["enc1"] != int64(g.DeltaPrime()-3) {
		t.Fatalf("online count %d, want %d", ops["enc1"], g.DeltaPrime()-3)
	}
}
