package transport

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"ppgnn/internal/core"
	"ppgnn/internal/obs"
)

// Pool defaults; fields left zero on a Pool pick these up at first use.
const (
	DefaultPoolSize   = 4
	DefaultMaxRetries = 3
	DefaultRetryBase  = 50 * time.Millisecond
	DefaultRetryMax   = 2 * time.Second
)

// Pool is a fault-tolerant core.Service over a bounded pool of
// connections to one Server. It is safe for concurrent use: at most Size
// query sessions run at once (each on its own connection), healthy
// connections are reused across queries, and failed sessions are
// transparently resent.
//
// Retry semantics: a session is resent, on a fresh connection and after
// exponential backoff with jitter, only for errors core.IsRetryable
// classifies as transient — network failures before the first answer
// byte, and the server's busy/draining rejections. A PPGNN session is
// idempotent on the LSP side (the server keeps no cross-session state and
// a repeated session shows the LSP the same d-anonymous view it already
// saw), so resending from scratch is safe; see DESIGN.md "Transport
// reliability". Server rejections of the query itself are returned
// immediately — the same ciphertexts would only be rejected again.
type Pool struct {
	// Addr is the server address.
	Addr string
	// Size bounds concurrent sessions and pooled idle connections
	// (default DefaultPoolSize).
	Size int
	// MaxRetries is the number of resends after the first attempt
	// (default DefaultMaxRetries; negative = no retries).
	MaxRetries int
	// RetryBase is the first backoff delay; it doubles per retry up to
	// RetryMax, each delay jittered in [½d, d).
	RetryBase time.Duration
	// RetryMax caps the backoff delay.
	RetryMax time.Duration
	// QueryTimeout bounds one Process call end to end, retries and
	// backoff included (0 = unbounded).
	QueryTimeout time.Duration
	// Tenant routes every session of this pool to a named tenant of a
	// multi-tenant server ("" or DefaultTenant = the default tenant, no
	// extra frame on the wire).
	Tenant string
	// DialFunc replaces net.Dial (tests inject faultnet dialers).
	DialFunc func(addr string) (net.Conn, error)
	// Seed makes the backoff jitter deterministic (0 = seed 1).
	Seed int64
	// Obs receives the pool's telemetry (nil = obs.Default). See
	// DESIGN.md §9 for the metric catalog.
	Obs *obs.Registry

	initOnce sync.Once
	sem      chan struct{} // bounds connections checked out + idle
	mu       sync.Mutex
	idle     []net.Conn
	rng      *rand.Rand
	closed   bool

	// Pre-bound instruments (init populates them from Obs).
	mDialOK, mDialErr, mReuse, mBackoff *obs.Counter
	mSessions                           func(outcome string) *obs.Counter
	mRetries                            func(cause string) *obs.Counter
	mInflight                           *obs.Gauge
	rec                                 *obs.Recorder
}

// NewPool returns a Pool serving queries to addr with default sizing;
// adjust the exported fields before the first Process call.
func NewPool(addr string) *Pool { return &Pool{Addr: addr} }

func (p *Pool) init() {
	p.initOnce.Do(func() {
		if p.Size <= 0 {
			p.Size = DefaultPoolSize
		}
		if p.MaxRetries == 0 {
			p.MaxRetries = DefaultMaxRetries
		}
		if p.RetryBase <= 0 {
			p.RetryBase = DefaultRetryBase
		}
		if p.RetryMax <= 0 {
			p.RetryMax = DefaultRetryMax
		}
		seed := p.Seed
		if seed == 0 {
			seed = 1
		}
		p.rng = rand.New(rand.NewSource(seed))
		p.sem = make(chan struct{}, p.Size)

		reg := p.Obs
		if reg == nil {
			reg = obs.Default()
		}
		p.mDialOK = reg.Counter("transport_dial_total", obs.L("outcome", "ok"))
		p.mDialErr = reg.Counter("transport_dial_total", obs.L("outcome", "error"))
		p.mReuse = reg.Counter("transport_conn_reuse_total")
		p.mBackoff = reg.Counter("transport_backoff_total")
		p.mInflight = reg.Gauge("transport_inflight")
		p.mSessions = func(outcome string) *obs.Counter {
			return reg.Counter("transport_sessions_total", obs.L("outcome", outcome))
		}
		p.mRetries = func(cause string) *obs.Counter {
			return reg.Counter("transport_retries_total", obs.L("cause", cause))
		}
		p.rec = reg.Recorder()
	})
}

// Process sends one query with automatic reconnect and retry.
//
// When every attempt fails, the returned error wraps the FULL cause
// chain of the retry loop via errors.Join — not just the last attempt's
// error — so typed causes (a *core.RemoteError behind two timeouts, a
// refused dial before a reset) stay matchable with errors.Is/errors.As
// after any number of resends.
//
// A caller without a span (direct library use, the benchmark driver)
// still gets flight-recorder coverage on both ends: Process originates
// its own trace-only root "query" and propagates it.
func (p *Pool) Process(q *core.QueryMsg, locs []*core.LocationMsg) (ans *core.AnswerMsg, err error) {
	p.init()
	root := p.rec.Start("query")
	defer func() { root.End(core.Outcome(err)) }()
	return p.Answer(root, q, locs)
}

// Answer implements core.Service: Process under the caller's span.
// Retried attempts and their causes land on sp, and its trace id
// precedes every attempt on the wire.
func (p *Pool) Answer(sp *obs.Span, q *core.QueryMsg, locs []*core.LocationMsg) (ans *core.AnswerMsg, err error) {
	p.init()
	p.mInflight.Add(1)
	defer func() {
		p.mInflight.Add(-1)
		p.mSessions(core.Outcome(err)).Inc()
	}()
	ctx := context.Background()
	if p.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.QueryTimeout)
		defer cancel()
	}
	retries := p.MaxRetries
	if retries < 0 {
		retries = 0
	}
	var attemptErrs []error
	attempts := 0
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			last := attemptErrs[len(attemptErrs)-1]
			cause := core.Cause(last)
			p.mRetries(cause).Inc()
			sp.AddRetry()
			sp.SetAttr("cause", cause)
			// A shed server may suggest how long to stay away; honor the
			// hint as the backoff floor (clamped to RetryMax).
			floor, _ := core.RetryAfterHint(last)
			if berr := p.backoff(ctx, attempt, floor); berr != nil {
				// Deadline exhausted mid-backoff: record it alongside the
				// attempts it interrupted.
				attemptErrs = append(attemptErrs, berr)
				break
			}
		}
		attempts++
		// After a failure the pooled connections are suspect too (one
		// broken path often means a broken network): retries always dial
		// fresh, the first attempt may reuse an idle connection.
		conn, aerr := p.acquire(ctx, attempt > 0)
		if aerr != nil {
			if !core.IsRetryable(aerr) {
				return nil, aerr
			}
			attemptErrs = append(attemptErrs, fmt.Errorf("attempt %d: %w", attempts, aerr))
			continue
		}
		ans, serr := runSession(ctx, conn, p.Tenant, sp, q, locs)
		if serr == nil {
			p.put(conn)
			return ans, nil
		}
		// The session died partway through: the connection's framing is
		// unknown, never reuse it.
		conn.Close()
		p.put(nil)
		if !core.IsRetryable(serr) {
			return nil, serr
		}
		attemptErrs = append(attemptErrs, fmt.Errorf("attempt %d: %w", attempts, serr))
	}
	return nil, fmt.Errorf("transport: session failed after %d attempt(s): %w",
		attempts, errors.Join(attemptErrs...))
}

// retryDelay computes one attempt's backoff: core.RetryDelay's jittered
// exponential delay, raised to the server-suggested floor (clamped to
// RetryMax) when the previous rejection carried a retry-after hint. The
// floor only ever lengthens the wait — a hinted server is a server that
// measured its own overload, and returning earlier than it asked just
// earns another shed.
func (p *Pool) retryDelay(attempt int, floor time.Duration) time.Duration {
	p.mu.Lock()
	d := core.RetryDelay(p.rng, p.RetryBase, p.RetryMax, attempt)
	p.mu.Unlock()
	if floor > p.RetryMax {
		floor = p.RetryMax
	}
	if d < floor {
		d = floor
	}
	return d
}

// backoff sleeps for the attempt's delay (see retryDelay), or fails when
// the context expires first.
func (p *Pool) backoff(ctx context.Context, attempt int, floor time.Duration) error {
	p.mBackoff.Inc()
	return core.SleepRetry(ctx, p.retryDelay(attempt, floor))
}

// acquire checks a connection out of the pool, dialing if no idle
// connection is available (or if fresh demands a new one).
func (p *Pool) acquire(ctx context.Context, fresh bool) (net.Conn, error) {
	select {
	case p.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, core.Retryable(ctx.Err())
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		<-p.sem
		return nil, fmt.Errorf("transport: pool is closed")
	}
	var conn net.Conn
	if n := len(p.idle); n > 0 {
		conn = p.idle[n-1]
		p.idle = p.idle[:n-1]
	}
	p.mu.Unlock()
	if conn != nil {
		if !fresh {
			p.mReuse.Inc()
			return conn, nil
		}
		conn.Close()
	}
	dial := p.DialFunc
	if dial == nil {
		dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	// The dial itself must honor the query deadline: a SYN blackhole can
	// hang far longer than any QueryTimeout. Run it aside and abandon it
	// when the context expires; an abandoned dial's connection, if it ever
	// arrives, is closed by the watcher rather than leaked.
	type dialed struct {
		conn net.Conn
		err  error
	}
	ch := make(chan dialed, 1)
	go func() {
		conn, err := dial(p.Addr)
		ch <- dialed{conn, err}
	}()
	select {
	case d := <-ch:
		if d.err != nil {
			<-p.sem
			p.mDialErr.Inc()
			return nil, core.Retryable(fmt.Errorf("transport: dial %s: %w", p.Addr, d.err))
		}
		p.mDialOK.Inc()
		return d.conn, nil
	case <-ctx.Done():
		go func() {
			if d := <-ch; d.conn != nil {
				d.conn.Close()
			}
		}()
		<-p.sem
		p.mDialErr.Inc()
		return nil, core.Retryable(fmt.Errorf("transport: dial %s: %w", p.Addr, ctx.Err()))
	}
}

// put releases the checked-out slot; a non-nil conn goes back to the idle
// pool unless the pool has closed meanwhile.
func (p *Pool) put(conn net.Conn) {
	p.mu.Lock()
	if conn != nil {
		if p.closed {
			conn.Close()
		} else {
			p.idle = append(p.idle, conn)
		}
	}
	p.mu.Unlock()
	<-p.sem
}

// Close closes all idle connections and fails subsequent Process calls.
// Sessions already in flight finish on their own connections, which close
// on return.
func (p *Pool) Close() error {
	p.init()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	for _, c := range p.idle {
		c.Close()
	}
	p.idle = nil
	return nil
}

var _ core.Service = (*Pool)(nil)
