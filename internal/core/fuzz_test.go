package core

import (
	"math/big"
	"math/rand"
	"testing"

	"ppgnn/internal/geo"
)

// Fuzz targets for the message decoders: whatever bytes arrive from the
// network, the unmarshalers must return an error or a well-formed message —
// never panic. Run with `go test -fuzz FuzzUnmarshalQuery ./internal/core`;
// plain `go test` exercises the seed corpus.

func fuzzSeeds(t interface{ Add(...interface{}) }) {
	// Real marshaled messages as seeds.
	rng := rand.New(rand.NewSource(1))
	p := testParams(2, VariantPPGNN)
	g, err := NewGroup(p, randomLocations(rng, 2), rng)
	if err != nil {
		return
	}
	q, locs, err := g.BuildQuery(nil)
	if err != nil {
		return
	}
	t.Add(q.Marshal())
	t.Add(locs[0].Marshal())
}

func FuzzUnmarshalQuery(f *testing.F) {
	fuzzSeeds(f)
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := UnmarshalQuery(data)
		if err != nil {
			return
		}
		// A successfully decoded query must re-marshal without panicking.
		if q.PK == nil || q.PK.Sign() <= 0 {
			t.Fatal("decoded query with invalid public key")
		}
		_ = q.Marshal()
	})
}

func FuzzUnmarshalLocation(f *testing.F) {
	fuzzSeeds(f)
	f.Add([]byte{0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		lm, err := UnmarshalLocation(data)
		if err != nil {
			return
		}
		_ = lm.Marshal()
	})
}

func FuzzUnmarshalAnswer(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x20, 0x01})
	f.Add([]byte{0x01, 0x00, 0xe9, 0xe9, 0xe9, 0x30}) // zero key width, count ≈10⁸
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := UnmarshalAnswer(data)
		if err != nil {
			return
		}
		if a.Degree < 1 {
			t.Fatal("decoded answer with invalid degree")
		}
		_ = a.Marshal()
	})
}

func FuzzUnmarshalContribution(f *testing.F) {
	c := &ContributionMsg{Session: 7, Round: 1, Slot: 2}
	for i := 0; i < 4; i++ {
		c.Set = append(c.Set, geo.Point{X: float64(i), Y: float64(i * 2)})
	}
	seed := c.Marshal()
	f.Add(seed)
	f.Add(seed[:len(seed)/2]) // truncated mid-point
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := UnmarshalContribution(data)
		if err != nil {
			return
		}
		// Decoded messages must re-marshal to the bytes they came from
		// (the encoding is canonical), so equivocation detection can
		// compare raw payloads.
		if again, err := UnmarshalContribution(m.Marshal()); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		} else if len(again.Set) != len(m.Set) {
			t.Fatal("re-decode changed the set size")
		}
	})
}

func FuzzUnmarshalPartial(f *testing.F) {
	pm := &PartialMsg{Session: 3, Round: 0, Index: 2, Degree: 1, KeyBytes: 4,
		Shares: []*big.Int{big.NewInt(99), big.NewInt(1 << 30)}}
	seed := pm.Marshal()
	f.Add(seed)
	f.Add(seed[:len(seed)-3]) // truncated mid-share
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x00, 0x02, 0x7F, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := UnmarshalPartial(data)
		if err != nil {
			return
		}
		if m.Degree < 1 || m.KeyBytes < 1 {
			t.Fatal("decoded partial with invalid geometry")
		}
		_ = m.Marshal()
	})
}
