// Package transport runs the PPGNN protocol across a real TCP connection —
// the base-station channel of the system model (Section 2). Server wraps an
// LSP and MemberServer one group member, both on one accept/serve/close
// core; Pool implements core.Service for remote groups with the fault
// tolerance flaky cellular links demand (reconnect, retry with backoff,
// per-query deadlines).
package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"ppgnn/internal/core"
	"ppgnn/internal/obs"
	"ppgnn/internal/parallel"
	"ppgnn/internal/wire"
)

// DefaultMaxLocations bounds the location frames of one session when the
// query does not pre-announce n (naive/unknown-n sessions, which are
// terminated by a sentinel): without a cap a hostile client could stream
// frames forever and pin a session goroutine. The paper's groups are tens
// of users; 4096 leaves three orders of magnitude of headroom.
const DefaultMaxLocations = 4096

// DefaultReadTimeout bounds the wait for each frame after the first of a
// query session.
const DefaultReadTimeout = 30 * time.Second

// DefaultDrainTimeout bounds how long Close waits for in-flight query
// sessions before force-closing their connections.
const DefaultDrainTimeout = 10 * time.Second

// DefaultTenant is the tenant id a session lands on when it opens with a
// FrameQuery directly instead of a FrameTenant — i.e. every client that
// predates multi-tenancy.
const DefaultTenant = "default"

// SessionAdmitter routes and admission-controls query sessions; the
// lifecycle layer (internal/svc) implements it over its tenant manager.
// Admit is called once per session after the tenant id is known but
// before the query is parsed. A nil error admits the session under the
// returned grant; a *BusyError sheds it with a retryable busy reply
// carrying the hint; any other error rejects it protocol-fatally (the
// client sees a plain FrameError and does not retry).
type SessionAdmitter interface {
	Admit(tenantID string) (*SessionGrant, error)
}

// SessionGrant is one admitted session's lease: the LSP to serve it with,
// the location cap to hold it to (0 = the server default), and a release
// hook the server calls exactly once: as soon as the LSP has processed
// the query, or when the session ends without getting that far, panics
// included.
type SessionGrant struct {
	LSP          *core.LSP
	MaxLocations int
	Release      func()
	// Slot is the tenant's metric slot ("default", "t0".."t7") — the
	// only tenant identity allowed into telemetry and traces. Empty
	// means unknown and degrades to "other" in a trace attribute.
	Slot string
}

// BusyError is a typed admission rejection: the session is shed with a
// retryable busy reply, optionally carrying the server's suggested
// retry-after on the wire (clients use it as a backoff floor).
type BusyError struct {
	RetryAfter time.Duration
	Reason     string // closed "admission" enum: "quota" | "overload"
	// Slot is the shed tenant's metric slot when known (quota sheds);
	// overload sheds happen before tenant routing and leave it empty.
	Slot string
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("transport: session shed (%s, retry after %v)", e.Reason, e.RetryAfter)
}

// Server exposes an LSP over TCP using the frame protocol: per query
// session the client sends one FrameQuery and n FrameLocation frames, then
// the server replies with one FrameAnswer (or FrameError carrying a UTF-8
// message). Connections are persistent; a client may run many query
// sessions over one connection. Logf, when set, receives connection-level
// diagnostics and the accept loop's terminal exit.
//
// Close drains gracefully: the listener stops, idle connections close
// immediately, and in-flight sessions get up to DrainTimeout to finish
// before their connections are force-closed. A panic while serving one
// session is recovered, logged, and ends only that connection, so one
// malformed query cannot kill the process.
type Server struct {
	serving
	LSP *core.LSP
	// ReadTimeout bounds the wait for each frame (default
	// DefaultReadTimeout).
	ReadTimeout time.Duration
	// MaxConns bounds concurrent connections; excess accepts are shed
	// with a FrameError carrying core.BusyMessage (0 = unlimited). Set it
	// before Listen.
	MaxConns int
	// MaxLocations bounds the location frames of one session (default
	// DefaultMaxLocations).
	MaxLocations int
	// DrainTimeout bounds Close's wait for in-flight sessions (default
	// DefaultDrainTimeout).
	DrainTimeout time.Duration
	// Admitter, when set, routes each session by its tenant frame and
	// decides admission (per-tenant quotas, adaptive overload shedding);
	// the grant's LSP and location cap then override this server's LSP
	// and MaxLocations for that session. Without one the server is
	// single-tenant: only the default tenant is served.
	Admitter SessionAdmitter
	// Coalescer, when set, merges the homomorphic batch submissions of
	// concurrently admitted sessions into shared parallel batches
	// (DESIGN.md §15): each session's LSP is wrapped per query with
	// core.LSP.WithCoalescer, after admission, so shed sessions never
	// touch it. Per-session answers are byte-identical to the
	// uncoalesced path. The server does not own the coalescer — the
	// serving command creates it and closes it after Server.Close.
	Coalescer *parallel.Coalescer
	// OnSessionPanic, when set, is invoked for every recovered
	// per-session panic — the crash-budget watchdog's feed.
	OnSessionPanic func()
	// Obs receives the server's telemetry (nil = obs.Default): session
	// outcomes, shed/drain/panic counters, frame-size histograms, and the
	// "lsp" phase span around Algorithm 2. See DESIGN.md §9.
	Obs *obs.Registry

	// inSession holds the connections with a session in flight; guarded
	// by the embedded serving's mu.
	inSession map[net.Conn]struct{}
	sessions  sync.WaitGroup
}

// NewServer wraps an LSP.
func NewServer(lsp *core.LSP) *Server {
	return &Server{LSP: lsp, inSession: make(map[net.Conn]struct{})}
}

// Listen starts accepting on addr (e.g. ":9042") and returns the bound
// address, which is useful with ":0".
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: listen: %w", err)
	}
	return s.Serve(ln), nil
}

// Serve starts accepting on an existing listener (tests wrap one in
// faultnet) and returns its address.
func (s *Server) Serve(ln net.Listener) net.Addr {
	// Pre-register the rare-event counters so a metrics snapshot shows
	// them at zero instead of omitting them until the first incident.
	s.reg().Counter("transport_server_shed_total")
	s.reg().Counter("transport_server_panics_total")
	return s.serve(ln, s.MaxConns, s.serveConn, s.shed)
}

// shed rejects a connection over the MaxConns limit with a retryable
// FrameError instead of a silent close, so fault-tolerant clients back
// off and retry rather than misreading the condition as a network fault
// of unknown safety.
func (s *Server) shed(conn net.Conn) {
	defer conn.Close()
	s.reg().Counter("transport_server_shed_total").Inc()
	s.reject(conn, core.BusyMessage)
	s.logf("shed %v: at MaxConns=%d", conn.RemoteAddr(), s.MaxConns)
}

// reject is the one way the server turns a session away unserved (over
// MaxConns, draining, shed by admission, malformed): the FrameError
// reply, then the discardClient drain, so the close that follows cannot
// reset the reply away before the client has read it.
func (s *Server) reject(conn net.Conn, msg string) {
	conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	wire.WriteFrame(conn, core.FrameError, []byte(msg))
	s.discardClient(conn)
}

// Close stops the listener and drains: idle connections close
// immediately, in-flight sessions get up to DrainTimeout to finish, then
// any survivors are force-closed. It is idempotent.
func (s *Server) Close() error {
	first, err := s.stop(func(c net.Conn) bool {
		_, busy := s.inSession[c]
		return busy
	})
	if !first {
		return nil
	}
	done := make(chan struct{})
	go func() {
		s.sessions.Wait()
		close(done)
	}()
	timeout := s.DrainTimeout
	if timeout == 0 {
		timeout = DefaultDrainTimeout
	}
	select {
	case <-done:
	case <-time.After(timeout):
		s.logf("drain: timeout after %v, force-closing", timeout)
	}
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	return err
}

// beginSession registers an in-flight session for the drain accounting;
// it fails when the server is draining.
func (s *Server) beginSession(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.inSession[conn] = struct{}{}
	s.sessions.Add(1)
	return true
}

func (s *Server) endSession(conn net.Conn) {
	s.mu.Lock()
	delete(s.inSession, conn)
	s.mu.Unlock()
	s.sessions.Done()
}

// reg returns the server's telemetry registry.
func (s *Server) reg() *obs.Registry {
	if s.Obs != nil {
		return s.Obs
	}
	return obs.Default()
}

// observeFrame records one frame payload's size in the server-side
// frame histogram.
func (s *Server) observeFrame(dir string, payloadLen int) {
	s.reg().Histogram("transport_server_frame_bytes", obs.SizeBuckets, obs.L("dir", dir)).
		Observe(float64(payloadLen + wire.FrameHeaderSize))
}

// countSession records one finished session under the closed outcome
// enum.
func (s *Server) countSession(outcome string) {
	s.reg().Counter("transport_server_sessions_total", obs.L("outcome", outcome)).Inc()
}

func (s *Server) serveConn(conn net.Conn) {
	for {
		if err := s.serveQuery(conn); err != nil {
			if !errors.Is(err, io.EOF) {
				s.logf("session on %v: %v", conn.RemoteAddr(), err)
			}
			return
		}
		s.mu.Lock()
		draining := s.closed
		s.mu.Unlock()
		if draining {
			return
		}
	}
}

// serveQuery handles one query session: an optional FrameTrace, an
// optional FrameTenant, then FrameQuery, n FrameLocations, reply. A
// panic anywhere in the session (a malformed query tripping an
// unguarded code path in the LSP) is converted into an error that ends
// this connection only.
func (s *Server) serveQuery(conn net.Conn) (err error) {
	inSession := false
	outcomeOverride := "" // non-empty wins over obs.Outcome(err)
	var tr *obs.Trace     // non-nil when the client sent a FrameTrace
	defer func() {
		if r := recover(); r != nil {
			conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
			wire.WriteFrame(conn, core.FrameError, []byte("internal error"))
			err = fmt.Errorf("transport: session panic: %v", r)
			s.reg().Counter("transport_server_panics_total").Inc()
			s.countSession("panic")
			tr.End("panic")
			if s.OnSessionPanic != nil {
				s.OnSessionPanic()
			}
		} else if inSession {
			out := obs.Outcome(err)
			if outcomeOverride != "" {
				out = outcomeOverride
			}
			s.countSession(out)
			tr.End(out)
		} else {
			tr.EndErr(err)
		}
		if inSession {
			s.endSession(conn)
		}
	}()
	timeout := s.ReadTimeout
	if timeout == 0 {
		timeout = DefaultReadTimeout
	}
	// The first frame may arrive arbitrarily late (idle connection): no
	// deadline. Subsequent frames of the same session are bounded.
	typ, payload, err := s.readFrame(conn, 0)
	if err != nil {
		return err
	}
	if typ == core.FrameTrace {
		id, terr := core.UnmarshalTraceID(payload)
		if terr != nil {
			s.reject(conn, terr.Error())
			return fmt.Errorf("transport: %w", terr)
		}
		// The client already made the sampling decision; the server-side
		// tree roots at "session" and records how this end disposed of it.
		tr = s.reg().Recorder().StartRemote(id, "session")
		if typ, payload, err = s.readFrame(conn, timeout); err != nil {
			return fmt.Errorf("reading session after trace frame: %w", err)
		}
	}
	if !s.beginSession(conn) {
		s.reject(conn, core.DrainingMessage)
		tr.End("drain")
		return fmt.Errorf("transport: draining, session rejected")
	}
	inSession = true
	tenant := DefaultTenant
	if typ == core.FrameTenant {
		if len(payload) == 0 || len(payload) > core.MaxTenantIDLen {
			return s.replyError(conn, fmt.Errorf("tenant frame of %d bytes (want 1..%d)", len(payload), core.MaxTenantIDLen))
		}
		tenant = string(payload)
		if typ, payload, err = s.readFrame(conn, timeout); err != nil {
			return fmt.Errorf("reading query after tenant frame: %w", err)
		}
	}
	if typ != core.FrameQuery {
		return s.replyError(conn, fmt.Errorf("expected query frame, got %d", typ))
	}
	// Admission: routed and gated before the query is even parsed, so a
	// shed session costs the server no crypto and no big.Int allocations.
	lsp, maxLocs := s.LSP, s.MaxLocations
	release := func() {}
	if s.Admitter != nil {
		grant, aerr := s.Admitter.Admit(tenant)
		if aerr != nil {
			var be *BusyError
			if errors.As(aerr, &be) {
				// Sheds get traced too: the trace records which gate shed
				// the session and the retry-after hint the client was
				// given, all as closed-enum buckets.
				tr.Root().SetAttr("admission", be.Reason)
				tr.Root().SetAttr("retry_after", obs.DurationBucketLabel(be.RetryAfter))
				if be.Slot != "" {
					tr.Root().SetAttr("tenant", be.Slot)
				}
				outcomeOverride = "busy"
				s.reg().Counter("transport_server_shed_total").Inc()
				s.reject(conn, core.BusyReply(be.RetryAfter))
				return fmt.Errorf("transport: %w", aerr)
			}
			tr.Root().SetAttr("admission", "unknown")
			return s.replyError(conn, aerr)
		}
		if grant.Release != nil {
			// Called as soon as the LSP is done with the query; the deferred
			// call covers the paths that never get that far. OnceFunc keeps
			// the grant's exactly-once contract across the two.
			release = sync.OnceFunc(grant.Release)
			defer release()
		}
		if grant.LSP != nil {
			lsp = grant.LSP
		}
		if grant.MaxLocations > 0 {
			maxLocs = grant.MaxLocations
		}
		tr.Root().SetAttr("admission", "ok")
		if grant.Slot != "" {
			tr.Root().SetAttr("tenant", grant.Slot)
		}
	} else if tenant != DefaultTenant {
		return s.replyError(conn, fmt.Errorf("unknown tenant %q", tenant))
	} else {
		// No admitter: the default policy accepted the session.
		tr.Root().SetAttr("admission", "ok")
		tr.Root().SetAttr("tenant", DefaultTenant)
	}
	// Admitted: route this session's homomorphic batches through the
	// server-shared coalescer (WithCoalescer is the identity on nil).
	lsp = lsp.WithCoalescer(s.Coalescer)
	q, err := core.UnmarshalQuery(payload)
	if err != nil {
		return s.replyError(conn, err)
	}
	n := announcedLocations(q)
	if maxLocs == 0 {
		maxLocs = DefaultMaxLocations
	}
	if n > maxLocs {
		return s.replyError(conn, fmt.Errorf("query announces %d locations, limit %d", n, maxLocs))
	}
	var locs []*core.LocationMsg
	for {
		if n >= 0 && len(locs) == n {
			break
		}
		if len(locs) >= maxLocs {
			return s.replyError(conn, fmt.Errorf("session exceeds %d location frames", maxLocs))
		}
		typ, payload, err := s.readFrame(conn, timeout)
		if err != nil {
			return fmt.Errorf("reading locations: %w", err)
		}
		if typ == core.FrameAnswer && n < 0 {
			// Sentinel: an empty answer frame marks end-of-locations for
			// variants that do not pre-announce n.
			break
		}
		if typ != core.FrameLocation {
			return s.replyError(conn, fmt.Errorf("expected location frame, got %d", typ))
		}
		lm, err := core.UnmarshalLocation(payload)
		if err != nil {
			return s.replyError(conn, err)
		}
		locs = append(locs, lm)
	}
	// The "lsp" span is Algorithm 2 as the provider experiences it:
	// candidate enumeration, homomorphic selection, sanitation. When the
	// session is traced the span doubles as the trace's "lsp" node,
	// annotated with the worker-width and candidate-count buckets.
	node := tr.Root().Child("lsp")
	sp := s.reg().StartSpan("lsp").Attach(node)
	ans, err := lsp.ProcessTraced(obs.TraceContext{ID: tr.ID(), Span: node}, q, locs, nil)
	sp.EndErr(err)
	// The session holds nothing of the tenant from here on; releasing
	// before the answer write means a client that has its answer never
	// observes its own session still counted in flight.
	release()
	if err != nil {
		return s.replyError(conn, err)
	}
	if err := conn.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	ab := ans.Marshal()
	s.observeFrame("tx", len(ab))
	return wire.WriteFrame(conn, core.FrameAnswer, ab)
}

// readFrame reads the session's next frame, waiting at most timeout
// (zero: unbounded), and records its size.
func (s *Server) readFrame(conn net.Conn, timeout time.Duration) (byte, []byte, error) {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	if err := conn.SetReadDeadline(deadline); err != nil {
		return 0, nil, err
	}
	typ, payload, err := wire.ReadFrame(conn)
	if err == nil {
		s.observeFrame("rx", len(payload))
	}
	return typ, payload, err
}

// announcedLocations is the number of location frames q announces
// through its subgroup sizes, or -1 when it announces none (naive and
// single-user queries): such a session ends its location stream with an
// empty FrameAnswer sentinel instead.
func announcedLocations(q *core.QueryMsg) int {
	n := 0
	for _, v := range q.NBar {
		n += v
	}
	if q.Variant == core.VariantNaive || n == 0 {
		return -1
	}
	return n
}

func (s *Server) replyError(conn net.Conn, cause error) error {
	s.reject(conn, cause.Error())
	// Protocol errors poison the session framing; drop the connection.
	return fmt.Errorf("wire: rejected query: %w", cause)
}

// discardClient drains what the client is still sending after the server
// has rejected the session. Closing with unread bytes in the receive
// buffer turns into a TCP reset that can destroy the error frame we just
// wrote before the client reads it — a shed session would then surface
// as a generic connection error instead of the typed retryable reply.
// Both bounds are hard: a few seconds of wall clock and a byte budget,
// so a client that streams forever cannot pin the connection.
func (s *Server) discardClient(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	io.CopyN(io.Discard, conn, 1<<20)
}

// countingReader tracks how many bytes of the server's reply have been
// consumed: a failure after the first answer byte is past the
// retry-safety boundary runSession enforces.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// runSession performs one query session on conn: an optional trace
// frame, an optional tenant frame, the query frame, location frames,
// optional end-of-locations sentinel, then the reply. The context
// deadline bounds every frame exchange. A traced session (tc.Traced)
// additionally records a client-observed "lsp" child span covering the
// reply wait — the server's processing as seen from this side of the
// wire.
//
// Error classification (see internal/core): every failure up to the first
// reply byte is marked core.Retryable — the server either never saw the
// session or abandoned it whole, and PPGNN sessions are idempotent, so a
// resend from scratch on a fresh connection is safe. A failure after the
// first reply byte is left unmarked (the extremely rare mid-answer cut),
// and a FrameError reply becomes a *core.RemoteError, retryable only for
// the transient busy/draining messages.
func runSession(ctx context.Context, conn net.Conn, tenant string, tc obs.TraceContext, q *core.QueryMsg, locs []*core.LocationMsg) (*core.AnswerMsg, error) {
	if tc.Traced() {
		if err := wire.WriteFrameCtx(ctx, conn, core.FrameTrace, core.MarshalTraceID(tc.ID)); err != nil {
			return nil, core.Retryable(err)
		}
	}
	if tenant != "" && tenant != DefaultTenant {
		if err := wire.WriteFrameCtx(ctx, conn, core.FrameTenant, []byte(tenant)); err != nil {
			return nil, core.Retryable(err)
		}
	}
	if err := wire.WriteFrameCtx(ctx, conn, core.FrameQuery, q.Marshal()); err != nil {
		return nil, core.Retryable(err)
	}
	for _, lm := range locs {
		if err := wire.WriteFrameCtx(ctx, conn, core.FrameLocation, lm.Marshal()); err != nil {
			return nil, core.Retryable(err)
		}
	}
	if announcedLocations(q) < 0 {
		if err := wire.WriteFrameCtx(ctx, conn, core.FrameAnswer, nil); err != nil {
			return nil, core.Retryable(err)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, core.Retryable(err)
	}
	dl, _ := ctx.Deadline()
	if err := conn.SetReadDeadline(dl); err != nil {
		return nil, core.Retryable(err)
	}
	cr := &countingReader{r: conn}
	// The reply wait, as a trace child: everything between the last
	// request byte and the first reply frame is the server's turn.
	lspNode := tc.Span.Child("lsp")
	typ, payload, err := wire.ReadFrame(cr)
	if err != nil {
		lspNode.EndErr(err)
		if cr.n == 0 {
			return nil, core.Retryable(err)
		}
		return nil, fmt.Errorf("transport: connection lost mid-answer: %w", err)
	}
	switch typ {
	case core.FrameAnswer:
		lspNode.End("ok")
		return core.UnmarshalAnswer(payload)
	case core.FrameError:
		rerr := &core.RemoteError{Msg: string(payload)}
		lspNode.End(core.Outcome(rerr))
		return nil, rerr
	default:
		lspNode.End("error")
		return nil, fmt.Errorf("wire: unexpected frame type %d", typ)
	}
}
