package group

import (
	"bytes"
	"math/big"
	"math/rand"
	"testing"

	"ppgnn/internal/core"
	"ppgnn/internal/geo"
	"ppgnn/internal/paillier"
)

func contribReq(session uint64, round, setSize int) []byte {
	req := &core.ContribRequest{
		Session: session, Round: round, Slot: 1, Pos: 1, SetSize: setSize,
		Space: geo.UnitRect,
	}
	return req.Marshal()
}

// A long-lived member must not let a hostile or crash-looping coordinator
// grow its caches without bound: sessions are LRU-capped, and rounds and
// set sizes within one session are budgeted.
func TestMemberCachesBounded(t *testing.T) {
	m := NewMember(geo.Point{X: 0.5, Y: 0.5}, nil, rand.New(rand.NewSource(1)))
	m.MaxSessions = 4

	// 100 distinct sessions: only the cap's worth may remain cached.
	for s := uint64(1); s <= 100; s++ {
		typ, _, err := m.Handle(core.FrameContribReq, contribReq(s, 0, 5))
		if err != nil || typ != core.FrameContrib {
			t.Fatalf("session %d: typ=%d err=%v", s, typ, err)
		}
	}
	m.mu.Lock()
	cached, order := len(m.sessions), len(m.order)
	m.mu.Unlock()
	if cached != 4 || order != 4 {
		t.Fatalf("cached sessions=%d order=%d, want 4 (LRU cap)", cached, order)
	}

	// Within one session, rounds beyond the reply budget are rejected.
	var rejected bool
	for round := 0; round < maxSessionReplies+8; round++ {
		typ, _, err := m.Handle(core.FrameContribReq, contribReq(7777, round, 5))
		if err != nil {
			t.Fatal(err)
		}
		if typ == core.FrameError {
			rejected = true
			break
		}
	}
	if !rejected {
		t.Fatal("round budget never enforced")
	}

	// Distinct set sizes beyond the dummy budget are rejected, not evicted.
	m2 := NewMember(geo.Point{X: 0.5, Y: 0.5}, nil, rand.New(rand.NewSource(2)))
	rejected = false
	for size := 3; size < 3+maxSessionSizes+8; size++ {
		typ, _, err := m2.Handle(core.FrameContribReq, contribReq(1, size, size))
		if err != nil {
			t.Fatal(err)
		}
		if typ == core.FrameError {
			rejected = true
			break
		}
	}
	if !rejected {
		t.Fatal("set-size budget never enforced")
	}
}

// Idempotency and LRU recency: repeated requests inside the cap return
// byte-identical replies, and touching a session keeps it cached while
// colder sessions are evicted around it.
func TestMemberCacheIdempotentAndLRU(t *testing.T) {
	m := NewMember(geo.Point{X: 0.25, Y: 0.75}, nil, rand.New(rand.NewSource(3)))
	m.MaxSessions = 2

	_, first, err := m.Handle(core.FrameContribReq, contribReq(1, 0, 5))
	if err != nil {
		t.Fatal(err)
	}
	// Interleave another session, re-touching session 1 so it stays hot.
	for s := uint64(2); s <= 6; s++ {
		if _, _, err := m.Handle(core.FrameContribReq, contribReq(s, 0, 5)); err != nil {
			t.Fatal(err)
		}
		_, again, err := m.Handle(core.FrameContribReq, contribReq(1, 0, 5))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatalf("session 1 reply changed after touching session %d", s)
		}
	}
	m.mu.Lock()
	_, hot := m.sessions[1]
	m.mu.Unlock()
	if !hot {
		t.Fatal("recently used session was evicted")
	}
}

// TestMemberPartialMatchesCoordinator: the shares a member returns for a
// PartialRequest are the vector the coordinator side computes for the
// same key share and ciphertexts, and each is that element's
// PartialDecrypt.
func TestMemberPartialMatchesCoordinator(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tk, shares, err := paillier.GenerateThresholdKey(rng, 128, 3, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	const degree = 2
	cts := make([]*big.Int, 5)
	for i := range cts {
		ct, err := tk.EncryptInt64(rng, int64(100+i), degree)
		if err != nil {
			t.Fatal(err)
		}
		cts[i] = ct.C
	}
	m := NewMember(geo.Point{X: 0.5, Y: 0.5}, nil, rand.New(rand.NewSource(4)))
	m.TK, m.Share = tk, shares[1]
	req := &core.PartialRequest{Session: 9, Degree: degree, KeyBytes: (tk.N.BitLen() + 7) / 8, Cts: cts}
	typ, payload, err := m.Handle(core.FramePartialReq, req.Marshal())
	if err != nil || typ != core.FramePartial {
		t.Fatalf("member reply %d (%s), %v", typ, payload, err)
	}
	pm, err := core.UnmarshalPartial(payload)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.PartialShares(tk, shares[1], degree, cts)
	if err != nil {
		t.Fatal(err)
	}
	if pm.Index != shares[1].Index || len(pm.Shares) != len(want) {
		t.Fatalf("member sent %d shares under index %d, want %d under %d",
			len(pm.Shares), pm.Index, len(want), shares[1].Index)
	}
	for i, s := range pm.Shares {
		ds, err := tk.PartialDecrypt(shares[1], &paillier.Ciphertext{C: cts[i], S: degree})
		if err != nil {
			t.Fatal(err)
		}
		if s.Cmp(want[i]) != 0 || s.Cmp(ds.Value) != 0 {
			t.Fatalf("share %d: member %v, coordinator %v, PartialDecrypt %v", i, s, want[i], ds.Value)
		}
	}
}
