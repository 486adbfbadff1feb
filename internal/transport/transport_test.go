package transport

import (
	"errors"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ppgnn/internal/core"
	"ppgnn/internal/dataset"
	"ppgnn/internal/geo"
	"ppgnn/internal/gnn"
	"ppgnn/internal/wire"
)

func startServer(t *testing.T, nPOIs int) (*Server, string) {
	return startServerWith(t, nPOIs, nil)
}

// startServerWith applies configure before the accept loop starts, so
// tests can set server knobs without racing it.
func startServerWith(t *testing.T, nPOIs int, configure func(*Server)) (*Server, string) {
	t.Helper()
	lsp := core.NewLSP(dataset.Synthetic(5, nPOIs), geo.UnitRect)
	srv := NewServer(lsp)
	if configure != nil {
		configure(srv)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr.String()
}

// dialOne is the single-connection client: a Pool of one connection that
// never retries, so sequential sessions share the connection and a
// failure surfaces exactly as the server or the network produced it. It
// closes with the test.
func dialOne(t *testing.T, addr string) *Pool {
	p := NewPool(addr)
	p.Size = 1
	p.MaxRetries = -1
	t.Cleanup(func() { p.Close() })
	return p
}

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
	p.NoSanitize = true
	return p
}

func TestQueryOverTCP(t *testing.T) {
	_, addr := startServer(t, 2000)
	for _, variant := range []core.Variant{core.VariantPPGNN, core.VariantOPT, core.VariantNaive} {
		rng := rand.New(rand.NewSource(1))
		p := testParams(3, variant)
		locs := []geo.Point{{X: 0.2, Y: 0.3}, {X: 0.4, Y: 0.5}, {X: 0.3, Y: 0.4}}
		g, err := core.NewGroup(p, locs, rng)
		if err != nil {
			t.Fatal(err)
		}
		res, err := g.Run(dialOne(t, addr), nil)
		if err != nil {
			t.Fatalf("%v: %v", variant, err)
		}
		if len(res.Points) == 0 {
			t.Fatalf("%v: empty answer", variant)
		}
		// Compare with a local in-process run of the same group state.
		lsp := core.NewLSP(dataset.Synthetic(5, 2000), geo.UnitRect)
		g2, err := core.NewGroup(p, locs, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		res2, err := g2.Run(core.LocalService{LSP: lsp}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Points) != len(res2.Points) {
			t.Fatalf("%v: remote %d POIs, local %d", variant, len(res.Points), len(res2.Points))
		}
		for i := range res.Points {
			if res.Points[i].Dist(res2.Points[i]) > 1e-9 {
				t.Fatalf("%v: remote/local answers differ at %d", variant, i)
			}
		}
	}
}

func TestSingleUserOverTCP(t *testing.T) {
	_, addr := startServer(t, 1000)
	p := testParams(1, core.VariantPPGNN)
	g, err := core.NewGroup(p, []geo.Point{{X: 0.7, Y: 0.7}}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	cli := dialOne(t, addr)
	res, err := g.Run(cli, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != p.K {
		t.Fatalf("got %d POIs, want %d", len(res.Points), p.K)
	}
}

func TestMultipleQueriesOneConnection(t *testing.T) {
	_, addr := startServer(t, 1000)
	cli := dialOne(t, addr)
	dial, dials := countingDialer(func(a string) (net.Conn, error) { return net.Dial("tcp", a) })
	cli.DialFunc = dial
	p := testParams(2, core.VariantPPGNN)
	g, err := core.NewGroup(p, []geo.Point{{X: 0.2, Y: 0.2}, {X: 0.3, Y: 0.3}}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := g.Run(cli, nil); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if got := atomic.LoadInt32(dials); got != 1 {
		t.Fatalf("3 queries dialed %d connections, want 1", got)
	}
}

func TestServerRejectsBadQuery(t *testing.T) {
	_, addr := startServer(t, 500)
	cli := dialOne(t, addr)
	p := testParams(2, core.VariantPPGNN)
	g, err := core.NewGroup(p, []geo.Point{{X: 0.2, Y: 0.2}, {X: 0.3, Y: 0.3}}, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	q, locs, err := g.BuildQuery(nil)
	if err != nil {
		t.Fatal(err)
	}
	q.V = q.V[:len(q.V)-1] // corrupt the indicator length
	if _, err := cli.Process(q, locs); err == nil {
		t.Fatal("server accepted corrupt query")
	}
}

func TestConcurrentClients(t *testing.T) {
	_, addr := startServer(t, 1000)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			p := testParams(2, core.VariantPPGNN)
			rng := rand.New(rand.NewSource(seed))
			g, err := core.NewGroup(p, []geo.Point{{X: 0.2, Y: 0.6}, {X: 0.5, Y: 0.1}}, rng)
			if err != nil {
				errs <- err
				return
			}
			cli := dialOne(t, addr)
			if _, err := g.Run(cli, nil); err != nil {
				errs <- err
			}
		}(int64(i + 10))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, _ := startServer(t, 100)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAddrBeforeListen(t *testing.T) {
	srv := NewServer(core.NewLSP(dataset.Synthetic(1, 10), geo.UnitRect))
	if _, err := srv.Addr(); err == nil {
		t.Fatal("Addr before Listen succeeded")
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	got, err := srv.Addr()
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != addr.String() {
		t.Fatalf("Addr = %v, Listen returned %v", got, addr)
	}
}

// slowServer starts a server whose LSP blocks in Search until release is
// called (once per query), signalling entry on started.
func slowServer(t *testing.T, drain time.Duration) (srv *Server, addr string, started chan struct{}, release chan struct{}) {
	t.Helper()
	lsp := core.NewLSP(dataset.Synthetic(5, 300), geo.UnitRect)
	started = make(chan struct{}, 8)
	release = make(chan struct{})
	inner := lsp.Search
	// Search runs once per candidate query, so signal and gate
	// tolerantly: started never blocks, release is a close-once gate.
	lsp.Search = func(query []geo.Point, k int, agg gnn.Aggregate) []gnn.Result {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		return inner(query, k, agg)
	}
	srv = NewServer(lsp)
	srv.DrainTimeout = drain
	bound, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, bound.String(), started, release
}

// TestGracefulDrain: Close while a session is mid-query must let the
// session finish and deliver its answer.
func TestGracefulDrain(t *testing.T) {
	srv, addr, started, release := slowServer(t, 5*time.Second)
	g, err := core.NewGroup(testParams(2, core.VariantPPGNN),
		[]geo.Point{{X: 0.3, Y: 0.3}, {X: 0.4, Y: 0.4}}, rand.New(rand.NewSource(20)))
	if err != nil {
		t.Fatal(err)
	}
	cli := dialOne(t, addr)
	type outcome struct {
		res *core.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := g.Run(cli, nil)
		done <- outcome{res, err}
	}()
	<-started // the session is now in-flight on the server
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	// Close must be draining, not killing: the client's query is still
	// pending and completes once the LSP is released.
	select {
	case o := <-done:
		t.Fatalf("query finished before release: res=%v err=%v", o.res, o.err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	o := <-done
	if o.err != nil {
		t.Fatalf("drained session failed: %v", o.err)
	}
	if len(o.res.Points) == 0 {
		t.Fatal("drained session returned an empty answer")
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
}

// TestDrainTimeoutForceCloses: a session that outlives DrainTimeout is
// cut, and Close returns promptly instead of hanging.
func TestDrainTimeoutForceCloses(t *testing.T) {
	srv, addr, started, release := slowServer(t, 50*time.Millisecond)
	g, err := core.NewGroup(testParams(2, core.VariantPPGNN),
		[]geo.Point{{X: 0.5, Y: 0.2}, {X: 0.6, Y: 0.3}}, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	cli := dialOne(t, addr)
	errc := make(chan error, 1)
	go func() {
		_, err := g.Run(cli, nil)
		errc <- err
	}()
	<-started
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 50*time.Millisecond {
		t.Fatalf("Close returned after %v, before the drain timeout", elapsed)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("Close hung %v on a stuck session", elapsed)
	}
	close(release) // let the stuck LSP goroutine finish
	if err := <-errc; err == nil {
		t.Fatal("query on a force-closed connection succeeded")
	}
}

// TestMaxConnsShedding: a connection over the limit is rejected with the
// retryable busy message instead of a silent close.
func TestMaxConnsShedding(t *testing.T) {
	srv, addr := startServerWith(t, 300, func(s *Server) { s.MaxConns = 1 })
	hog, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer hog.Close()
	// Wait until the hog's connection is registered by the accept loop.
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.mu.Lock()
		n := len(srv.conns)
		srv.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("hog connection never registered")
		}
		time.Sleep(time.Millisecond)
	}
	cli := dialOne(t, addr)
	g, err := core.NewGroup(testParams(2, core.VariantPPGNN),
		[]geo.Point{{X: 0.2, Y: 0.5}, {X: 0.3, Y: 0.6}}, rand.New(rand.NewSource(22)))
	if err != nil {
		t.Fatal(err)
	}
	q, locs, err := g.BuildQuery(nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = cli.Process(q, locs)
	var re *core.RemoteError
	if !errors.As(err, &re) || re.Msg != core.BusyMessage {
		t.Fatalf("err = %v, want busy RemoteError", err)
	}
	if !core.IsRetryable(err) {
		t.Fatal("shedding rejection must be retryable")
	}
}

// TestSessionPanicRecovery: a panicking LSP code path ends one session
// with a FrameError, not the process; the server keeps serving.
func TestSessionPanicRecovery(t *testing.T) {
	lsp := core.NewLSP(dataset.Synthetic(5, 300), geo.UnitRect)
	var once sync.Once
	inner := lsp.Search
	lsp.Search = func(query []geo.Point, k int, agg gnn.Aggregate) []gnn.Result {
		panicked := false
		once.Do(func() { panicked = true })
		if panicked {
			panic("injected search fault")
		}
		return inner(query, k, agg)
	}
	srv := NewServer(lsp)
	bound, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	addr := bound.String()

	g, err := core.NewGroup(testParams(2, core.VariantPPGNN),
		[]geo.Point{{X: 0.4, Y: 0.1}, {X: 0.5, Y: 0.2}}, rand.New(rand.NewSource(23)))
	if err != nil {
		t.Fatal(err)
	}
	cli := dialOne(t, addr)
	if _, err := g.Run(cli, nil); err == nil {
		t.Fatal("query served by a panicking LSP succeeded")
	}
	// The process survived; a second session succeeds.
	if _, err := g.Run(cli, nil); err != nil {
		t.Fatalf("server did not survive the session panic: %v", err)
	}
}

// TestMaxLocationsCap: a client streaming unbounded location frames in an
// unknown-n session is rejected instead of pinning the session goroutine.
func TestMaxLocationsCap(t *testing.T) {
	_, addr := startServerWith(t, 300, func(s *Server) { s.MaxLocations = 4 })
	p := testParams(2, core.VariantNaive)
	g, err := core.NewGroup(p, []geo.Point{{X: 0.2, Y: 0.2}, {X: 0.8, Y: 0.8}}, rand.New(rand.NewSource(24)))
	if err != nil {
		t.Fatal(err)
	}
	q, locs, err := g.BuildQuery(nil)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteFrame(conn, core.FrameQuery, q.Marshal()); err != nil {
		t.Fatal(err)
	}
	// Never send the sentinel; just keep streaming location frames.
	lb := locs[0].Marshal()
	for i := 0; i < 16; i++ {
		if err := wire.WriteFrame(conn, core.FrameLocation, lb); err != nil {
			break // server may cut the connection after rejecting
		}
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	typ, payload, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatalf("no reply to a location flood: %v", err)
	}
	if typ != core.FrameError || !strings.Contains(string(payload), "location frames") {
		t.Fatalf("reply = type %d %q, want location-cap FrameError", typ, payload)
	}
}

func TestServerLogf(t *testing.T) {
	srv, addr := startServer(t, 100)
	logged := make(chan string, 8)
	srv.Logf = func(format string, args ...interface{}) {
		select {
		case logged <- format:
		default:
		}
	}
	// A corrupted query triggers a logged session error.
	cli := dialOne(t, addr)
	p := testParams(2, core.VariantPPGNN)
	g, err := core.NewGroup(p, []geo.Point{{X: 0.1, Y: 0.1}, {X: 0.2, Y: 0.2}}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	q, locs, err := g.BuildQuery(nil)
	if err != nil {
		t.Fatal(err)
	}
	q.K = 0 // invalid: the server rejects and logs
	if _, err := cli.Process(q, locs); err == nil {
		t.Fatal("invalid query accepted")
	}
	select {
	case <-logged:
	case <-time.After(5 * time.Second):
		t.Fatal("no session diagnostic logged")
	}
}
