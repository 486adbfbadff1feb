package group_test

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"

	"ppgnn/internal/core"
	"ppgnn/internal/dataset"
	"ppgnn/internal/faultnet"
	"ppgnn/internal/geo"
	"ppgnn/internal/gnn"
	"ppgnn/internal/group"
	"ppgnn/internal/paillier"
	"ppgnn/internal/transport"
)

// The soak runs real TCP member servers and kills members by panicking
// inside their handler: the server recovers, the connection dies, and the
// coordinator sees exactly what a crashed member process looks like.
type killHandler struct {
	h group.Handler
	// trig is the frame type that triggers the crash; 0 crashes on any
	// request (the member died before contributing).
	trig byte
}

func (k killHandler) Handle(msgType byte, payload []byte) (byte, []byte, error) {
	if k.trig == 0 || msgType == k.trig {
		panic("soak: member killed")
	}
	return k.h.Handle(msgType, payload)
}

// soakRig is the long-lived half of the soak: one threshold key pair and
// one POI database shared by every run (keygen dominates otherwise).
type soakRig struct {
	p      core.Params
	lsp    *core.LSP
	coord  *core.Coordinator
	shares []*paillier.KeyShare
	locs   []geo.Point
}

func newSoakRig(t *testing.T) *soakRig {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	locs := make([]geo.Point, 5)
	for i := range locs {
		locs[i] = geo.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	p := core.DefaultParams(5)
	p.KeyBits = 192 // correctness is size-independent; keygen dominates
	p.D = 6
	p.Delta = 12
	p.K = 6
	p.Variant = core.VariantPPGNN
	p.NoSanitize = true
	coord, shares, err := core.NewThresholdCoordinator(p, locs[0], rng, 3)
	if err != nil {
		t.Fatal(err)
	}
	return &soakRig{
		p:      p,
		lsp:    core.NewLSP(dataset.Synthetic(123, 1500), geo.UnitRect),
		coord:  coord,
		shares: shares,
		locs:   locs,
	}
}

// startMembers brings up fresh member servers for one run. wrap[id], when
// present, intercepts that member's handler.
func (r *soakRig) startMembers(t *testing.T, seed int64, wrap map[int]func(group.Handler) group.Handler,
	dialers map[int]func(addr string) (net.Conn, error)) []group.Link {
	t.Helper()
	links := make([]group.Link, 4)
	for i := 0; i < 4; i++ {
		id := i + 1
		m := group.NewMember(r.locs[id], nil, rand.New(rand.NewSource(seed+int64(id))))
		m.TK, m.Share = r.coord.TK, r.shares[i]
		var h group.Handler = m
		if w, ok := wrap[id]; ok {
			h = w(m)
		}
		srv := transport.NewMemberServer(h)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		link := group.DialMember(addr.String())
		if d, ok := dialers[id]; ok {
			link.DialFunc = d
		}
		t.Cleanup(func() { link.Close() })
		links[i] = link
	}
	return links
}

// checkOracle requires a session's answer to equal the plaintext kGNN
// answer over its contributors' real locations.
func (r *soakRig) checkOracle(t *testing.T, out *group.Outcome) {
	t.Helper()
	real := make([]geo.Point, len(out.Contributors))
	for i, id := range out.Contributors {
		real[i] = r.locs[id]
	}
	want := r.lsp.Search(real, r.p.K, gnn.Sum)
	if len(out.Result.Points) != len(want) {
		t.Fatalf("contributors %v: got %d POIs, want %d", out.Contributors, len(out.Result.Points), len(want))
	}
	for i := range want {
		if out.Result.Points[i].Dist(want[i].Item.P) > 1e-6 {
			t.Fatalf("contributors %v rank %d: got %v, want oracle %v", out.Contributors, i, out.Result.Points[i], want[i].Item.P)
		}
	}
}

func soakConfig(seed int64) group.Config {
	return group.Config{
		Quorum:        3,
		MemberTimeout: 2 * time.Second,
		Retries:       1,
		RetryBase:     2 * time.Millisecond,
		RetryMax:      20 * time.Millisecond,
		Seed:          seed,
	}
}

// TestSoakTwoCrashesMatchOracle kills 2 of the 4 members per run — before
// or during the partial-decryption phase, chosen by a per-run seed — and
// requires every surviving session to return exactly the plaintext kGNN
// answer for its contributors. A third member gets a flaky first dial on
// even runs, exercising retry against mid-frame connection resets.
func TestSoakTwoCrashesMatchOracle(t *testing.T) {
	r := newSoakRig(t)
	runs := 50
	if testing.Short() {
		runs = 8
	}
	for run := 0; run < runs; run++ {
		runRng := rand.New(rand.NewSource(int64(1000 + run)))
		perm := runRng.Perm(4)
		wrap := make(map[int]func(group.Handler) group.Handler)
		contribVictims := make([]int, 0, 2)
		for _, vi := range perm[:2] {
			id := vi + 1
			trig := byte(0) // crash before contributing
			if runRng.Intn(2) == 1 {
				trig = core.FramePartialReq // crash during partial decryption
			} else {
				contribVictims = append(contribVictims, id)
			}
			wrap[id] = func(h group.Handler) group.Handler { return killHandler{h: h, trig: trig} }
		}
		dialers := make(map[int]func(addr string) (net.Conn, error))
		if run%2 == 0 {
			// A survivor whose first connection resets mid-reply.
			dialers[perm[2]+1] = faultnet.Dialer(faultnet.Faults{Seed: int64(run), ReadResetAfter: 60})
		}

		links := r.startMembers(t, int64(5000+run*10), wrap, dialers)
		s, err := group.NewSession(r.coord, links, soakConfig(int64(7000+run)))
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		out, err := s.Run(ctx, core.LocalService{LSP: r.lsp})
		cancel()
		if err != nil {
			t.Fatalf("run %d (victims %v): %v", run, perm[:2], err)
		}
		if len(out.Contributors) < 3 {
			t.Fatalf("run %d: %d contributors, want ≥ quorum 3", run, len(out.Contributors))
		}
		for _, id := range contribVictims {
			if _, ok := out.Ejected[id]; !ok {
				t.Fatalf("run %d: crashed member %d not in ejected set %v", run, id, out.Ejected)
			}
		}
		r.checkOracle(t, out)
	}
}

// TestSoakThreeCrashesLoseQuorum kills 3 of the 4 members: the roster can
// no longer field the quorum of 3 and the session must fail fast with the
// typed quorum error instead of hanging.
func TestSoakThreeCrashesLoseQuorum(t *testing.T) {
	r := newSoakRig(t)
	runRng := rand.New(rand.NewSource(424242))
	perm := runRng.Perm(4)
	wrap := make(map[int]func(group.Handler) group.Handler)
	for _, vi := range perm[:3] {
		wrap[vi+1] = func(h group.Handler) group.Handler { return killHandler{h: h} }
	}
	links := r.startMembers(t, 9000, wrap, nil)
	s, err := group.NewSession(r.coord, links, soakConfig(31337))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	out, err := s.Run(ctx, core.LocalService{LSP: r.lsp})
	elapsed := time.Since(start)
	if !errors.Is(err, core.ErrQuorumLost) {
		t.Fatalf("err=%v, want ErrQuorumLost", err)
	}
	if len(out.Ejected) < 3 {
		t.Fatalf("ejected=%v, want all three crashed members named", out.Ejected)
	}
	if elapsed > 15*time.Second {
		t.Fatalf("quorum loss took %v, want fast failure", elapsed)
	}
}
