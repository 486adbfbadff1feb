package transport

import (
	"math/rand"
	"sync"
	"testing"

	"ppgnn/internal/core"
	"ppgnn/internal/geo"
	"ppgnn/internal/parallel"
)

// TestCoalescedServerSessions runs concurrent TCP query sessions
// against a server with a shared Coalescer: answers must be exact
// (each group's decrypted result matches the in-process LSP), and the
// wrap must not leak into the server's own LSP field.
func TestCoalescedServerSessions(t *testing.T) {
	co := parallel.NewCoalescer(2, parallel.CoalesceOptions{})
	defer co.Close()
	srv, addr := startServerWith(t, 1500, func(s *Server) {
		s.LSP.Workers = 2
		s.Coalescer = co
	})

	const sessions = 4
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(60 + i)))
			p := testParams(3, core.VariantPPGNN)
			locs := []geo.Point{
				{X: 0.2 + 0.01*float64(i), Y: 0.3}, {X: 0.4, Y: 0.5}, {X: 0.3, Y: 0.4},
			}
			g, err := core.NewGroup(p, locs, rng)
			if err != nil {
				errs[i] = err
				return
			}
			g.CacheSets = true
			cli := dialOne(t, addr)
			res, err := g.Run(cli, nil)
			if err != nil {
				errs[i] = err
				return
			}
			// Same cached query against the raw (uncoalesced) LSP must
			// produce the same plaintext result.
			want, err := g.Run(core.LocalService{LSP: srv.LSP}, nil)
			if err != nil {
				errs[i] = err
				return
			}
			if len(res.Points) != len(want.Points) {
				t.Errorf("session %d: %d points over TCP, %d locally", i, len(res.Points), len(want.Points))
				return
			}
			for j := range want.Points {
				if res.Points[j].Dist(want.Points[j]) > 1e-9 {
					t.Errorf("session %d point %d: %v != %v", i, j, res.Points[j], want.Points[j])
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	if srv.LSP.Coalesce != nil {
		t.Fatal("per-session wrap mutated the server's LSP")
	}
}
