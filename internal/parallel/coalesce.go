// Cross-session micro-batch coalescer (DESIGN.md §15). Under open-loop
// traffic the LSP's homomorphic hot ops arrive as many small batches —
// one per admitted session — each paying its own goroutine spawn/join
// and leaving workers idle between flushes. The Coalescer merges the
// batch submissions of concurrently admitted sessions into single fleet
// dispatches: a bounded queue that flushes when the pending task count
// reaches a size bound or the oldest submission has waited ~1ms,
// whichever comes first.
//
// Correctness does not depend on the coalescer at all: a submission's
// tasks are the SAME closures the uncoalesced pool would have run, each
// still owning exactly one index of its own submission and writing only
// its own slot. All randomness in the crypto batch helpers is drawn
// serially on the submitting goroutine BEFORE the batch is submitted
// (the batch.go determinism contract), so interleaving tasks from
// different sessions cannot reorder any session's randomness and
// per-session outputs stay byte-identical to the uncoalesced path.
//
// Failure isolation is per submission: an error or panic in one
// session's task skips only that submission's remaining tasks; the
// error is returned (and a panic re-raised) on the submitting session's
// goroutine, so the transport layer's crash-budget accounting sees
// exactly what it would have seen without coalescing.
package parallel

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ppgnn/internal/obs"
)

// Telemetry (DESIGN.md §9, §15): flush trigger mix, micro-batch shape,
// queue wait, and inline fallbacks after Close.
var (
	mCoInline   = obs.Default().Counter("parallel_coalesce_inline_total")
	mCoTasks    = obs.Default().Histogram("parallel_coalesce_batch_tasks", obs.CountBuckets)
	mCoSessions = obs.Default().Histogram("parallel_coalesce_batch_sessions", obs.CountBuckets)
	mCoWait     = obs.Default().Histogram("parallel_coalesce_wait_seconds", obs.TimeBuckets)
	mCoBatches  = map[string]*obs.Counter{
		"size":     obs.Default().Counter("parallel_coalesce_batches_total", obs.L("trigger", "size")),
		"deadline": obs.Default().Counter("parallel_coalesce_batches_total", obs.L("trigger", "deadline")),
		"close":    obs.Default().Counter("parallel_coalesce_batches_total", obs.L("trigger", "close")),
	}
)

// CoalesceOptions tune the flush rules; zero values take the defaults
// documented on each field.
type CoalesceOptions struct {
	// MaxTasks flushes a micro-batch once the pending task count
	// reaches it. Default 4× the worker width: enough to keep every
	// worker busy through scheduler jitter without letting the queue
	// grow past one dispatch of useful work.
	MaxTasks int
	// MaxDelay bounds how long the oldest pending submission may wait
	// before a flush (default 1ms). This is the latency cost ceiling a
	// lone session pays for the chance of being merged.
	MaxDelay time.Duration
}

// Coalescer merges batch submissions from concurrent sessions into
// single dispatches. Create with NewCoalescer, hand sessions a Pool via
// Pool(), and Close when done (post-Close submissions run inline, so a
// draining server never deadlocks a late session).
type Coalescer struct {
	workers  int
	maxTasks int
	maxDelay time.Duration
	fallback *Pool // inline path after Close

	mu      sync.Mutex
	pending []*coSubmission
	tasks   int
	closed  bool

	kick chan struct{} // capacity 1: "state changed, re-evaluate"
	dead chan struct{} // closed when the dispatcher exits
}

// NewCoalescer starts a coalescer whose flushes run on a fleet of the
// given width (workers <= 0 means GOMAXPROCS). The caller owns the
// returned Coalescer and must Close it to stop the dispatcher.
func NewCoalescer(workers int, opts CoalesceOptions) *Coalescer {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	maxTasks := opts.MaxTasks
	if maxTasks <= 0 {
		maxTasks = 4 * workers
	}
	maxDelay := opts.MaxDelay
	if maxDelay <= 0 {
		maxDelay = time.Millisecond
	}
	c := &Coalescer{
		workers:  workers,
		maxTasks: maxTasks,
		maxDelay: maxDelay,
		fallback: New(workers),
		kick:     make(chan struct{}, 1),
		dead:     make(chan struct{}),
	}
	go c.dispatch()
	return c
}

// Pool returns a *Pool that routes every batch through the coalescer.
// It is freely copyable and shareable, like any Pool; the coalescer
// itself bounds concurrency, so the pool's width only caps the inline
// fallback after Close.
func (c *Coalescer) Pool() *Pool {
	return &Pool{workers: c.workers, co: c}
}

// Workers returns the width of the coalescer's dispatch fleet.
func (c *Coalescer) Workers() int { return c.workers }

// Close drains the queue (flushing any pending submissions with the
// "close" trigger), stops the dispatcher, and waits for it to exit.
// Submissions arriving after Close run inline on the caller's
// goroutine with uncoalesced semantics. Close is idempotent.
func (c *Coalescer) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	select {
	case c.kick <- struct{}{}:
	default:
	}
	<-c.dead
}

// coSubmission is one session's batch waiting in the queue. done is
// closed exactly once, after every task of the submission has either
// run or been skipped — submit's caller can then safely reuse any
// memory the tasks wrote.
type coSubmission struct {
	ctx  context.Context
	n    int
	fn   func(i int) error
	enq  time.Time
	done chan struct{}

	failed   atomic.Bool // set => skip this submission's remaining tasks
	once     sync.Once   // guards err/panicVal: first failure wins
	err      error
	panicVal any
}

func (s *coSubmission) fail(err error) {
	s.once.Do(func() { s.err = err })
	s.failed.Store(true)
}

func (s *coSubmission) failPanic(v any) {
	s.once.Do(func() { s.panicVal = v })
	s.failed.Store(true)
}

// submit enqueues one batch and blocks until every one of its tasks has
// run or been skipped. It returns the submission's first error, or
// re-raises its first panic on the calling goroutine so transport's
// session recover (and the crash-budget watchdog behind it) observes
// panics exactly as in the uncoalesced path.
func (c *Coalescer) submit(ctx context.Context, n int, fn func(i int) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	sub := &coSubmission{ctx: ctx, n: n, fn: fn, enq: time.Now(), done: make(chan struct{})}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		mCoInline.Inc()
		return c.fallback.ForEach(ctx, n, fn)
	}
	c.pending = append(c.pending, sub)
	c.tasks += n
	c.mu.Unlock()
	select {
	case c.kick <- struct{}{}:
	default:
	}
	<-sub.done
	if sub.panicVal != nil {
		panic(sub.panicVal)
	}
	return sub.err
}

// dispatch is the single background goroutine that applies the flush
// rules: size first (a full dispatch of work is ready), close (drain),
// then the per-submission age deadline.
func (c *Coalescer) dispatch() {
	defer close(c.dead)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	timerLive := false
	defer func() {
		if timerLive && !timer.Stop() {
			<-timer.C
		}
	}()
	for {
		c.mu.Lock()
		for len(c.pending) == 0 {
			if c.closed {
				c.mu.Unlock()
				return
			}
			c.mu.Unlock()
			<-c.kick
			c.mu.Lock()
		}
		trigger := ""
		switch {
		case c.tasks >= c.maxTasks:
			trigger = "size"
		case c.closed:
			trigger = "close"
		default:
			wait := time.Until(c.pending[0].enq.Add(c.maxDelay))
			if wait <= 0 {
				trigger = "deadline"
			} else {
				c.mu.Unlock()
				// Stop-and-drain before Reset: the timer may hold an
				// undelivered tick from a previous wait.
				if timerLive && !timer.Stop() {
					<-timer.C
				}
				timer.Reset(wait)
				timerLive = true
				select {
				case <-timer.C:
					timerLive = false
				case <-c.kick:
				}
				continue
			}
		}
		subs, total := c.pending, c.tasks
		c.pending, c.tasks = nil, 0
		c.mu.Unlock()
		c.runBatch(subs, total, trigger)
	}
}

// runBatch executes one flushed micro-batch: the concatenation of every
// pending submission's index space, pulled by an atomic cursor across
// min(workers, total) goroutines. Task gi maps back to submission si
// and local index gi-offs[si]; a failed submission's remaining tasks
// are skipped, other submissions are untouched.
func (c *Coalescer) runBatch(subs []*coSubmission, total int, trigger string) {
	now := time.Now()
	for _, s := range subs {
		mCoWait.Observe(now.Sub(s.enq).Seconds())
	}
	mCoBatches[trigger].Inc()
	mCoTasks.Observe(float64(total))
	mCoSessions.Observe(float64(len(subs)))

	offs := make([]int, len(subs)+1)
	for i, s := range subs {
		offs[i+1] = offs[i] + s.n
	}
	runOne := func(gi int) {
		si := sort.Search(len(offs), func(i int) bool { return offs[i] > gi }) - 1
		s := subs[si]
		if s.failed.Load() {
			return
		}
		if err := s.ctx.Err(); err != nil {
			s.fail(err)
			return
		}
		defer func() {
			if v := recover(); v != nil {
				s.failPanic(v)
			}
		}()
		if err := s.fn(gi - offs[si]); err != nil {
			s.fail(err)
		}
	}

	workers := c.workers
	if workers > total {
		workers = total
	}
	if workers <= 1 {
		for gi := 0; gi < total; gi++ {
			runOne(gi)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					gi := int(next.Add(1)) - 1
					if gi >= total {
						return
					}
					runOne(gi)
				}
			}()
		}
		wg.Wait()
	}
	for _, s := range subs {
		// Match Pool.run: a batch whose context expired reports the
		// context error even if every started task happened to finish.
		if !s.failed.Load() {
			if err := s.ctx.Err(); err != nil {
				s.fail(err)
			}
		}
		close(s.done)
	}
}
