package group

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"ppgnn/internal/core"
	"ppgnn/internal/cost"
	"ppgnn/internal/encode"
	"ppgnn/internal/gnn"
)

// One coordinator, two rosters, two kinds of key: the same users through
// the shared-memory Group and through a Session over ProcLinks, each with
// a sole and with a t=n threshold key, must decrypt to the same records —
// the plaintext oracle's — and charge all three channels.
func TestCrossDriverEquivalence(t *testing.T) {
	const n = 4
	for _, variant := range []core.Variant{core.VariantPPGNN, core.VariantOPT, core.VariantNaive} {
		// Same seed, so both rigs hold the same n locations.
		sole := newRig(t, n, variant, 0, 17)
		joint := newRig(t, n, variant, n, 17)
		lsp := sole.lsp

		plain, err := core.NewGroup(sole.p, sole.locs, rand.New(rand.NewSource(18)))
		if err != nil {
			t.Fatal(err)
		}
		threshold, err := core.NewThresholdGroup(joint.p, joint.locs, rand.New(rand.NewSource(18)), n)
		if err != nil {
			t.Fatal(err)
		}

		got := map[string][]encode.Record{}
		meters := map[string]*cost.Meter{}
		for name, g := range map[string]*core.Group{"group": plain, "threshold group": threshold} {
			m := &cost.Meter{}
			res, err := g.Run(core.LocalService{LSP: lsp, Meter: m}, m)
			if err != nil {
				t.Fatalf("%v %s: %v", variant, name, err)
			}
			got[name], meters[name] = res.Records, m
		}
		for name, r := range map[string]*rig{"session": sole, "threshold session": joint} {
			m := &cost.Meter{}
			s, err := NewSession(r.coord, r.links, Config{Seed: 1, Meter: m})
			if err != nil {
				t.Fatalf("%v %s: %v", variant, name, err)
			}
			out, err := s.Run(context.Background(), core.LocalService{LSP: lsp, Meter: m})
			if err != nil {
				t.Fatalf("%v %s: %v", variant, name, err)
			}
			got[name], meters[name] = out.Result.Records, m
		}

		oracle := lsp.Search(sole.locs, sole.p.K, gnn.Sum)
		want := make([]encode.Record, len(oracle))
		for i, r := range oracle {
			// The answer carries no POI ids unless Params.IncludeIDs asks.
			want[i] = encode.RecordOf(0, r.Item.P, sole.p.Space)
		}
		for name, recs := range got {
			if !reflect.DeepEqual(recs, want) {
				t.Errorf("%v %s: records %v, oracle %v", variant, name, recs, want)
			}
			s := meters[name].Snapshot()
			if s.IntraGroupBytes == 0 || s.UserToLSPBytes == 0 || s.LSPToUserBytes == 0 {
				t.Errorf("%v %s: a channel went uncharged: intra=%d up=%d down=%d",
					variant, name, s.IntraGroupBytes, s.UserToLSPBytes, s.LSPToUserBytes)
			}
		}
	}
}
