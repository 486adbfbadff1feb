package transport

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ppgnn/internal/core"
	"ppgnn/internal/dataset"
	"ppgnn/internal/faultnet"
	"ppgnn/internal/geo"
	"ppgnn/internal/gnn"
	"ppgnn/internal/obs"
)

// countingDialer wraps a dial function, counting connections dialed.
func countingDialer(dial func(string) (net.Conn, error)) (func(string) (net.Conn, error), *int32) {
	var n int32
	return func(addr string) (net.Conn, error) {
		atomic.AddInt32(&n, 1)
		return dial(addr)
	}, &n
}

// fastPool returns a pool with test-friendly backoff.
func fastPool(addr string) *Pool {
	p := NewPool(addr)
	p.RetryBase = time.Millisecond
	p.RetryMax = 20 * time.Millisecond
	return p
}

// TestPoolRetriesMidLocationStreamReset is the acceptance scenario: the
// connection is reset mid-location-stream (after the query frame, inside
// the first location frame) and the Pool transparently redials, resends
// the session from scratch, and returns the correct answer.
func TestPoolRetriesMidLocationStreamReset(t *testing.T) {
	_, addr := startServer(t, 1500)
	p := testParams(3, core.VariantPPGNN)
	locs := []geo.Point{{X: 0.2, Y: 0.3}, {X: 0.4, Y: 0.5}, {X: 0.3, Y: 0.4}}

	// A sibling group with the same seed builds byte-identical messages,
	// giving the exact offset of a cut inside the first location frame.
	sizer, err := core.NewGroup(p, locs, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	q, lms, err := sizer.BuildQuery(nil)
	if err != nil {
		t.Fatal(err)
	}
	cut := int64(len(q.Marshal()) + len(lms[0].Marshal())) // mid-frame: headers excluded on purpose

	g, err := core.NewGroup(p, locs, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	pool := fastPool(addr)
	defer pool.Close()
	dial, dials := countingDialer(faultnet.Dialer(
		faultnet.Faults{Seed: 1, WriteResetAfter: cut},
	))
	pool.DialFunc = dial
	res, err := g.Run(pool, nil)
	if err != nil {
		t.Fatalf("pool did not survive mid-stream reset: %v", err)
	}
	if got := atomic.LoadInt32(dials); got != 2 {
		t.Fatalf("dialed %d conns, want 2 (reset + redial)", got)
	}

	// The answer must match an in-process run of the same group state.
	lsp := core.NewLSP(dataset.Synthetic(5, 1500), geo.UnitRect)
	g2, err := core.NewGroup(p, locs, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := g2.Run(core.LocalService{LSP: lsp}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 || len(res.Points) != len(res2.Points) {
		t.Fatalf("retried answer has %d POIs, local run %d", len(res.Points), len(res2.Points))
	}
	for i := range res.Points {
		if res.Points[i].Dist(res2.Points[i]) > 1e-9 {
			t.Fatalf("retried answer differs from local run at %d", i)
		}
	}
}

func TestPoolRetriesDialFailure(t *testing.T) {
	_, addr := startServer(t, 500)
	pool := fastPool(addr)
	defer pool.Close()
	dial, dials := countingDialer(faultnet.Dialer(
		faultnet.Faults{FailDial: true},
		faultnet.Faults{FailDial: true},
	))
	pool.DialFunc = dial
	g, err := core.NewGroup(testParams(2, core.VariantPPGNN),
		[]geo.Point{{X: 0.1, Y: 0.8}, {X: 0.2, Y: 0.7}}, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(pool, nil); err != nil {
		t.Fatalf("pool did not survive two dial failures: %v", err)
	}
	if got := atomic.LoadInt32(dials); got != 3 {
		t.Fatalf("dialed %d times, want 3", got)
	}
}

func TestPoolGivesUpAfterMaxRetries(t *testing.T) {
	pool := fastPool("127.0.0.1:1") // nothing listens here
	defer pool.Close()
	pool.MaxRetries = 2
	g, err := core.NewGroup(testParams(2, core.VariantPPGNN),
		[]geo.Point{{X: 0.1, Y: 0.1}, {X: 0.2, Y: 0.2}}, rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	q, lms, err := g.BuildQuery(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Process(q, lms); err == nil {
		t.Fatal("pool succeeded against a dead address")
	} else if !core.IsRetryable(err) {
		t.Fatalf("exhausted-retries error lost the retryable cause: %v", err)
	}
}

// TestPoolExhaustedOutcome: a session whose every dial fails ends on the
// retry budget, not on the protocol, and says so on the pool's session
// counter and trace root.
func TestPoolExhaustedOutcome(t *testing.T) {
	pool := fastPool("127.0.0.1:1")
	defer pool.Close()
	pool.Obs = obs.NewRegistry()
	pool.MaxRetries = 2
	pool.DialFunc = faultnet.Dialer(
		faultnet.Faults{FailDial: true},
		faultnet.Faults{FailDial: true},
		faultnet.Faults{FailDial: true},
	)
	g, err := core.NewGroup(testParams(2, core.VariantPPGNN),
		[]geo.Point{{X: 0.1, Y: 0.1}, {X: 0.2, Y: 0.2}}, rand.New(rand.NewSource(14)))
	if err != nil {
		t.Fatal(err)
	}
	q, lms, err := g.BuildQuery(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Process(q, lms); !errors.Is(err, faultnet.ErrDialFailed) {
		t.Fatalf("err = %v, want the injected dial failures", err)
	}
	snap := pool.Obs.Snapshot()
	if got := snap.Counter("transport_sessions_total", obs.L("outcome", "exhausted")); got != 1 {
		t.Errorf("transport_sessions_total{outcome=exhausted} = %d, want 1", got)
	}
	if got := snap.Counter("transport_sessions_total", obs.L("outcome", "error")); got != 0 {
		t.Errorf("transport_sessions_total{outcome=error} = %d, want 0", got)
	}
	traces := pool.Obs.Recorder().Snapshot()
	if len(traces) != 1 {
		t.Fatalf("%d traces retained, want 1", len(traces))
	}
	if got := traces[0].Root.Outcome; got != "exhausted" {
		t.Errorf("trace root outcome = %q, want exhausted", got)
	}
}

func TestPoolDoesNotRetryFatalRejection(t *testing.T) {
	_, addr := startServer(t, 500)
	pool := fastPool(addr)
	defer pool.Close()
	dial, dials := countingDialer(faultnet.Dialer())
	pool.DialFunc = dial
	g, err := core.NewGroup(testParams(2, core.VariantPPGNN),
		[]geo.Point{{X: 0.2, Y: 0.2}, {X: 0.3, Y: 0.3}}, rand.New(rand.NewSource(14)))
	if err != nil {
		t.Fatal(err)
	}
	q, lms, err := g.BuildQuery(nil)
	if err != nil {
		t.Fatal(err)
	}
	q.V = q.V[:len(q.V)-1] // corrupt the indicator length
	_, err = pool.Process(q, lms)
	var re *core.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want a RemoteError rejection", err)
	}
	if got := atomic.LoadInt32(dials); got != 1 {
		t.Fatalf("dialed %d times for a fatal rejection, want 1 (no retry)", got)
	}
}

func TestPoolQueryTimeout(t *testing.T) {
	lsp := core.NewLSP(dataset.Synthetic(5, 500), geo.UnitRect)
	block := make(chan struct{})
	inner := lsp.Search
	lsp.Search = func(query []geo.Point, k int, agg gnn.Aggregate) []gnn.Result {
		<-block
		return inner(query, k, agg)
	}
	defer close(block)
	srv := NewServer(lsp)
	srv.DrainTimeout = 100 * time.Millisecond
	bound, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	addr := bound.String()
	pool := fastPool(addr)
	defer pool.Close()
	pool.MaxRetries = -1
	pool.QueryTimeout = 150 * time.Millisecond
	g, err := core.NewGroup(testParams(2, core.VariantPPGNN),
		[]geo.Point{{X: 0.4, Y: 0.4}, {X: 0.5, Y: 0.5}}, rand.New(rand.NewSource(15)))
	if err != nil {
		t.Fatal(err)
	}
	q, lms, err := g.BuildQuery(nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := pool.Process(q, lms); err == nil {
		t.Fatal("query against a stalled LSP succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline fired after %v, want ≈150ms", elapsed)
	}
}

func TestPoolClosed(t *testing.T) {
	pool := fastPool("127.0.0.1:1")
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Process(&core.QueryMsg{}, nil); err == nil {
		t.Fatal("Process on a closed pool succeeded")
	}
}

// TestPoolSoak pushes ≥8 concurrent goroutines through one Pool (Size 4,
// so sessions also contend for the semaphore) and checks every answer
// against the plaintext kGNN oracle over the same database.
func TestPoolSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const (
		goroutines = 8
		queries    = 2
		nPOIs      = 1200
	)
	srv, addr := startServer(t, nPOIs)
	pool := fastPool(addr)
	defer pool.Close()

	oracle := &gnn.MBM{Tree: srv.LSP.Tree(), Agg: gnn.Sum}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			p := testParams(2, core.VariantPPGNN)
			locs := []geo.Point{
				{X: 0.1 + 0.8*rng.Float64(), Y: 0.1 + 0.8*rng.Float64()},
				{X: 0.1 + 0.8*rng.Float64(), Y: 0.1 + 0.8*rng.Float64()},
			}
			g, err := core.NewGroup(p, locs, rng)
			if err != nil {
				errs <- err
				return
			}
			want := oracle.Search(locs, p.K)
			for j := 0; j < queries; j++ {
				res, err := g.Run(pool, nil)
				if err != nil {
					errs <- err
					return
				}
				if len(res.Points) != len(want) {
					errs <- errors.New("answer length differs from the plaintext oracle")
					return
				}
				for i := range want {
					if res.Points[i].Dist(want[i].Item.P) > 1e-6 {
						errs <- errors.New("answer differs from the plaintext oracle")
						return
					}
				}
			}
		}(int64(100 + i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
