package core

import (
	"math/rand"
	"testing"
	"time"

	"ppgnn/internal/cost"
)

func thresholdTestParams(n int, variant Variant) Params {
	p := testParams(n, variant)
	p.KeyBits = 192 // safe-prime generation is the slow part
	return p
}

// Threshold-mode queries must return exactly the same answers as the base
// protocol while requiring T users to cooperate for decryption.
func TestThresholdGroupEndToEnd(t *testing.T) {
	lsp := testLSP(1500)
	for _, variant := range []Variant{VariantPPGNN, VariantOPT, VariantNaive} {
		p := thresholdTestParams(4, variant)
		p.NoSanitize = true
		locs := randomLocations(rand.New(rand.NewSource(1)), 4)

		start := time.Now()
		tg, err := NewThresholdGroup(p, locs, rand.New(rand.NewSource(2)), 3)
		if err != nil {
			t.Fatalf("%v: %v", variant, err)
		}
		// No sole key is generated beside the threshold one, and none is
		// timed: nobody in the group can decrypt alone.
		if tg.Key != nil {
			t.Fatalf("%v: threshold group holds a sole private key", variant)
		}
		if tg.KeygenTime <= 0 || tg.KeygenTime > time.Since(start) {
			t.Fatalf("%v: KeygenTime %v outside the constructor's own %v", variant, tg.KeygenTime, time.Since(start))
		}
		var m cost.Meter
		res, err := tg.Run(LocalService{LSP: lsp, Meter: &m}, &m)
		if err != nil {
			t.Fatalf("%v: %v", variant, err)
		}
		want := plainAnswer(lsp, locs, p.K, p.Agg)
		if len(res.Points) != len(want) {
			t.Fatalf("%v: got %d POIs, want %d", variant, len(res.Points), len(want))
		}
		for i := range want {
			if res.Points[i].Dist(want[i].Item.P) > 1e-6 {
				t.Fatalf("%v rank %d: got %v, want %v", variant, i, res.Points[i], want[i].Item.P)
			}
		}
		s := m.Snapshot()
		if s.Ops["threshold-dec"] == 0 {
			t.Fatalf("%v: no threshold decryptions recorded", variant)
		}
		// The share exchange must appear on the intra-group channel.
		if s.IntraGroupBytes == 0 {
			t.Fatalf("%v: no intra-group share traffic", variant)
		}
	}
}

func TestThresholdGroupSanitized(t *testing.T) {
	lsp := testLSP(1500)
	p := thresholdTestParams(3, VariantPPGNN)
	locs := randomLocations(rand.New(rand.NewSource(3)), 3)
	tg, err := NewThresholdGroup(p, locs, rand.New(rand.NewSource(4)), 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tg.Run(LocalService{LSP: lsp}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) < 1 || len(res.Points) > p.K {
		t.Fatalf("sanitized threshold answer length %d", len(res.Points))
	}
}

func TestThresholdGroupValidation(t *testing.T) {
	locs2 := randomLocations(rand.New(rand.NewSource(5)), 2)
	p := thresholdTestParams(2, VariantPPGNN)
	if _, err := NewThresholdGroup(p, locs2, nil, 3); err == nil {
		t.Error("t > n accepted")
	}
	if _, err := NewThresholdGroup(p, locs2, nil, 1); err == nil {
		t.Error("t = 1 accepted")
	}
	p1 := thresholdTestParams(1, VariantPPGNN)
	p1.Delta = p1.D
	if _, err := NewThresholdGroup(p1, randomLocations(rand.New(rand.NewSource(6)), 1), nil, 2); err == nil {
		t.Error("n = 1 accepted")
	}
}
