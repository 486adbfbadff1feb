package core

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
)

// The seeded location-set stream is what EXPERIMENTS.md was produced with:
// BuildQuery must keep drawing segment, per-subgroup positions, then users
// 0..n−1 from the group's RNG, in that order and with nothing in between.
// The digests were recorded at the commit before Group became a roster
// around Coordinator (PR 19's parent); a change here moves every seeded
// experiment.
func TestLocationSetStreamGolden(t *testing.T) {
	partitioned := [2]string{ // [fresh dummies, CacheSets]
		"035c2ab87b0a28ce7ae5eddd4112cb07847e9c57703c714bad937e5ac204d78f",
		"0a6eb3da7018d15114310cef1e746dbb73d7f3158ef88f2b05dd502f077d1e6d",
	}
	golden := map[Variant][2]string{
		VariantPPGNN: partitioned,
		VariantOPT:   partitioned, // same draws: the variants differ only in the indicator
		VariantNaive: {
			"8f45259dc7cfd9bb022ee6b991c89030f640fa906cfee0f588843836a0f64b50",
			"3448e8bcfa2bdc2016359debda0226c9bc498bad783e0f24cb048253841194d3",
		},
	}
	for _, variant := range []Variant{VariantPPGNN, VariantOPT, VariantNaive} {
		for i, cache := range []bool{false, true} {
			p := testParams(4, variant)
			locs := randomLocations(rand.New(rand.NewSource(21)), 4)
			g, err := NewGroup(p, locs, rand.New(rand.NewSource(22)))
			if err != nil {
				t.Fatal(err)
			}
			g.CacheSets = cache
			h := sha256.New()
			for q := 0; q < 2; q++ {
				_, lms, err := g.BuildQuery(nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, lm := range lms {
					h.Write(lm.Marshal())
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != golden[variant][i] {
				t.Errorf("%v CacheSets=%v: location-set stream digest %s, want %s", variant, cache, got, golden[variant][i])
			}
		}
	}
}
