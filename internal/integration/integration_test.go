// Package integration holds cross-module scenario tests: full protocol
// stacks (crypto + partition + sanitation + wire + TCP) exercised together,
// including failure injection that no single package can test alone.
package integration

import (
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"ppgnn/internal/core"
	"ppgnn/internal/cost"
	"ppgnn/internal/dataset"
	"ppgnn/internal/geo"
	"ppgnn/internal/gnn"
	"ppgnn/internal/rtree"
	"ppgnn/internal/transport"
	"ppgnn/internal/wire"
)

func testParams(n int, variant core.Variant) core.Params {
	p := core.DefaultParams(n)
	p.KeyBits = 256
	p.D = 5
	p.Delta = 10
	if n == 1 {
		p.Delta = p.D
	}
	p.K = 4
	p.Variant = variant
	return p
}

// dialOne is the single-connection client: a Pool of one connection that
// never retries, so a failure surfaces as the server or network produced
// it. It closes with the test.
func dialOne(t *testing.T, addr string) *transport.Pool {
	p := transport.NewPool(addr)
	p.Size = 1
	p.MaxRetries = -1
	t.Cleanup(func() { p.Close() })
	return p
}

func randomLocations(rng *rand.Rand, n int) []geo.Point {
	out := make([]geo.Point, n)
	for i := range out {
		out[i] = geo.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	return out
}

// The kitchen sink: an LSP with a swapped-in group-query engine served
// over TCP, queried by a caching group with precomputed randomness,
// answers rerandomized — every extension at once, still returning the
// engine's exact ranking.
func TestFullStackCombined(t *testing.T) {
	pois := dataset.Synthetic(11, 4000)
	lsp := core.NewLSP(pois, geo.UnitRect)
	lsp.Rerandomize = true
	// The black box: rank POIs by distance to the group's centroid.
	centroid := func(query []geo.Point, k int) []gnn.Result {
		return (&gnn.MBM{Tree: lsp.Tree(), Agg: gnn.Sum}).Search([]geo.Point{geo.Centroid(query)}, k)
	}
	lsp.Search = func(query []geo.Point, k int, _ gnn.Aggregate) []gnn.Result {
		return centroid(query, k)
	}
	srv := transport.NewServer(lsp)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rng := rand.New(rand.NewSource(5))
	p := testParams(3, core.VariantOPT)
	p.NoSanitize = true
	locs := randomLocations(rng, 3)
	g, err := core.NewGroup(p, locs, rng)
	if err != nil {
		t.Fatal(err)
	}
	g.CacheSets = true
	if _, err := g.Precompute(64); err != nil {
		t.Fatal(err)
	}

	cli := dialOne(t, addr.String())

	want := centroid(locs, p.K)
	// An LSP that ignored the override would answer with the default
	// engine; the test only proves the override reached it if the two
	// rankings differ here.
	sameAsDefault := true
	for i, r := range (&gnn.MBM{Tree: lsp.Tree(), Agg: gnn.Sum}).Search(locs, p.K) {
		sameAsDefault = sameAsDefault && r.Item.ID == want[i].Item.ID
	}
	if sameAsDefault {
		t.Fatal("the centroid engine ranks like the default engine for these locations; the test cannot tell them apart")
	}
	for round := 0; round < 3; round++ {
		res, err := g.Run(cli, nil)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(res.Points) != len(want) {
			t.Fatalf("round %d: %d POIs, want %d", round, len(res.Points), len(want))
		}
		for i := range want {
			if res.Points[i].Dist(want[i].Item.P) > 1e-6 {
				t.Fatalf("round %d rank %d: answer does not match the centroid engine", round, i)
			}
		}
	}
}

// The meter passed to Group.Run charges the paper's per-query message
// bytes once, whether the LSP is in process or behind a Pool: the
// transport adds no second count of its own.
func TestPoolAndLocalChargeEqualBytes(t *testing.T) {
	pois := dataset.Synthetic(23, 2000)
	srv := transport.NewServer(core.NewLSP(pois, geo.UnitRect))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pool := transport.NewPool(addr.String())
	defer pool.Close()
	local := core.LocalService{LSP: core.NewLSP(pois, geo.UnitRect)}
	for _, variant := range []core.Variant{core.VariantPPGNN, core.VariantOPT, core.VariantNaive} {
		p := testParams(4, variant)
		p.NoSanitize = true
		run := func(svc core.Service) cost.Snapshot {
			rng := rand.New(rand.NewSource(5))
			g, err := core.NewGroup(p, randomLocations(rng, p.N), rng)
			if err != nil {
				t.Fatal(err)
			}
			var m cost.Meter
			if _, err := g.Run(svc, &m); err != nil {
				t.Fatalf("%v: %v", variant, err)
			}
			return m.Snapshot()
		}
		remote, inProc := run(pool), run(local)
		if remote.UserToLSPBytes != inProc.UserToLSPBytes || remote.LSPToUserBytes != inProc.LSPToUserBytes {
			t.Fatalf("%v: pool charged u→l %d, l→u %d; in process %d, %d", variant,
				remote.UserToLSPBytes, remote.LSPToUserBytes, inProc.UserToLSPBytes, inProc.LSPToUserBytes)
		}
		if inProc.UserToLSPBytes == 0 || inProc.LSPToUserBytes == 0 {
			t.Fatalf("%v: no user↔LSP bytes charged: %+v", variant, inProc)
		}
	}
}

// Threshold group over TCP: joint decryption with the LSP fully remote.
func TestThresholdOverTCP(t *testing.T) {
	lsp := core.NewLSP(dataset.Synthetic(13, 2000), geo.UnitRect)
	srv := transport.NewServer(lsp)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	p := testParams(3, core.VariantPPGNN)
	p.KeyBits = 192
	p.NoSanitize = true
	rng := rand.New(rand.NewSource(7))
	locs := randomLocations(rng, 3)
	tg, err := core.NewThresholdGroup(p, locs, rng, 2)
	if err != nil {
		t.Fatal(err)
	}
	cli := dialOne(t, addr.String())
	res, err := tg.Run(cli, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != p.K {
		t.Fatalf("threshold-over-TCP returned %d POIs", len(res.Points))
	}
}

// Failure injection: a server that dies mid-session must surface an error
// to the client, not a hang or a bogus answer.
func TestServerDiesMidQuery(t *testing.T) {
	lsp := core.NewLSP(dataset.Synthetic(17, 500), geo.UnitRect)
	srv := transport.NewServer(lsp)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(9))
	p := testParams(2, core.VariantPPGNN)
	p.NoSanitize = true
	g, err := core.NewGroup(p, randomLocations(rng, 2), rng)
	if err != nil {
		t.Fatal(err)
	}
	cli := dialOne(t, addr.String())
	// First query succeeds.
	if _, err := g.Run(cli, nil); err != nil {
		t.Fatalf("first query: %v", err)
	}
	// Kill the server; the next query must error out promptly.
	srv.Close()
	done := make(chan error, 1)
	go func() {
		_, err := g.Run(cli, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("query against a dead server succeeded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("query against a dead server hung")
	}
}

// Failure injection: garbage frames must not crash the server, and honest
// clients on other connections keep working.
func TestServerSurvivesGarbage(t *testing.T) {
	lsp := core.NewLSP(dataset.Synthetic(19, 500), geo.UnitRect)
	srv := transport.NewServer(lsp)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Hostile connection 1: raw garbage bytes.
	hostile, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	hostile.Write([]byte("GET / HTTP/1.1\r\n\r\n\x00\x00\xff\xff"))
	hostile.Close()

	// Hostile connection 2: a well-framed but undecodable query.
	hostile2, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	wire.WriteFrame(hostile2, core.FrameQuery, []byte{0xde, 0xad, 0xbe, 0xef})
	hostile2.Close()

	// Hostile connection 3: claims a huge frame then hangs up.
	hostile3, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	hostile3.Write([]byte{1, 0x00, 0xff, 0xff, 0xff})
	hostile3.Close()

	// An honest client still gets served.
	rng := rand.New(rand.NewSource(11))
	p := testParams(2, core.VariantPPGNN)
	p.NoSanitize = true
	g, err := core.NewGroup(p, randomLocations(rng, 2), rng)
	if err != nil {
		t.Fatal(err)
	}
	cli := dialOne(t, addr.String())
	if _, err := g.Run(cli, nil); err != nil {
		t.Fatalf("honest client failed after hostile traffic: %v", err)
	}
}

// Many concurrent groups with different parameters against one server.
func TestConcurrentMixedWorkload(t *testing.T) {
	lsp := core.NewLSP(dataset.Synthetic(23, 3000), geo.UnitRect)
	lsp.Workers = 2
	srv := transport.NewServer(lsp)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	variants := []core.Variant{core.VariantPPGNN, core.VariantOPT, core.VariantNaive}
	var wg sync.WaitGroup
	errs := make(chan error, 6)
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + i)))
			n := 1 + i%3
			p := testParams(n, variants[i%3])
			p.NoSanitize = i%2 == 0
			g, err := core.NewGroup(p, randomLocations(rng, n), rng)
			if err != nil {
				errs <- err
				return
			}
			cli := dialOne(t, addr.String())
			for q := 0; q < 2; q++ {
				if _, err := g.Run(cli, nil); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// A database mutated between queries serves consistent fresh answers over
// the full remote stack.
func TestDynamicDatabaseOverTCP(t *testing.T) {
	lsp := core.NewLSP(dataset.Synthetic(29, 800), geo.UnitRect)
	srv := transport.NewServer(lsp)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rng := rand.New(rand.NewSource(13))
	p := testParams(1, core.VariantPPGNN)
	p.K = 1
	loc := geo.Point{X: 0.77, Y: 0.31}
	g, err := core.NewGroup(p, []geo.Point{loc}, rng)
	if err != nil {
		t.Fatal(err)
	}
	cli := dialOne(t, addr.String())

	// Insert a POI at the query location; it must be served remotely.
	lsp.Insert(rtree.Item{ID: 999999, P: loc})
	res, err := g.Run(cli, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Points[0].Dist(loc) > 1e-6 {
		t.Fatalf("inserted POI not served: top-1 %v", res.Points[0])
	}
	lsp.Delete(rtree.Item{ID: 999999, P: loc})
	res2, err := g.Run(cli, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Points[0].Dist(loc) < 1e-9 {
		t.Fatal("deleted POI still served")
	}
}
