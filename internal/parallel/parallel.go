// Package parallel is the bounded, context-aware worker pool behind the
// homomorphic batch pipeline. Every expensive phase of Algorithm 1 —
// indicator encryption, the LSP's ⊙ dot-products and ⨂ selections over
// the δ' candidate answers, threshold share production and combination —
// reduces to independent modular exponentiations, so fanning a batch
// across GOMAXPROCS workers scales nearly linearly with cores without
// changing a single protocol byte (DESIGN.md §10 argues why this leaks
// nothing beyond the timing the threat model already permits).
//
// The helpers guarantee deterministic output ordering (each task owns its
// index and writes only its own slot) and first-error cancellation: once
// any task fails, no new task starts, in-flight tasks finish, and every
// worker goroutine is joined before the call returns — a helper never
// leaks goroutines, even when the context is canceled mid-batch.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ppgnn/internal/obs"
)

// Pool bounds the concurrency of batch helpers. A Pool holds no
// goroutines or other resources — workers are spawned per batch and
// joined before the batch returns — so it is freely copyable, safe for
// concurrent use, and needs no Close. A pool obtained from
// Coalescer.Pool additionally routes every batch through the
// cross-session coalescer (coalesce.go); semantics are unchanged.
type Pool struct {
	workers int
	co      *Coalescer
}

// New returns a pool of the given width; workers <= 0 means GOMAXPROCS.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers returns the pool's width.
func (p *Pool) Workers() int { return p.workers }

// Coalesced reports whether batches on this pool are routed through a
// cross-session coalescer (the "coalesced" trace attribute).
func (p *Pool) Coalesced() bool { return p != nil && p.co != nil }

// defaultPool is the process-wide pool used when callers pass a nil
// *Pool: GOMAXPROCS-wide unless SetDefaultWorkers overrides it (the
// benchmark harness sizes it per workload).
var defaultPool atomic.Pointer[Pool]

func init() { defaultPool.Store(New(0)) }

// Default returns the process-wide pool.
func Default() *Pool { return defaultPool.Load() }

// SetDefaultWorkers resizes the process-wide pool (n <= 0 restores the
// GOMAXPROCS default).
func SetDefaultWorkers(n int) { defaultPool.Store(New(n)) }

// orDefault resolves a possibly-nil pool, so batch APIs can take *Pool
// and treat nil as "the process default".
func (p *Pool) orDefault() *Pool {
	if p == nil {
		return Default()
	}
	return p
}

// Telemetry (DESIGN.md §9, §10): aggregate-only instruments with no
// labels, pre-bound so the hot path pays atomics, not registry lookups.
var (
	mDepth     = obs.Default().Gauge("parallel_pool_depth")
	mTaskSecs  = obs.Default().Histogram("parallel_task_seconds", obs.TimeBuckets)
	mBatchSize = obs.Default().Histogram("parallel_batch_size", obs.CountBuckets)
)

// ForEach runs fn(i) for every i in [0, n), at most Workers at a time,
// and returns after every started task has finished. The first error (or
// the context's, if it expires first) cancels dispatch of the remaining
// indices and is returned; output stays deterministic because task i
// writes only its own result slot. A width-1 pool runs inline with no
// goroutines, which is the serial baseline the bench gate compares
// against.
func (p *Pool) ForEach(ctx context.Context, n int, fn func(i int) error) error {
	p = p.orDefault()
	if n <= 0 {
		return nil
	}
	mBatchSize.Observe(float64(n))
	return p.run(ctx, n, fn)
}

// run is ForEach without the batch-size observation, which the
// coalescer's inline fallback must not record twice. A coalescing pool
// hands the whole batch to the coalescer, which merges it with other
// sessions' pending batches; error, panic, and ordering semantics are
// identical.
func (p *Pool) run(ctx context.Context, n int, fn func(i int) error) error {
	if p.co != nil {
		return p.co.submit(ctx, n, fn)
	}
	workers := p.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := runTask(i, fn); err != nil {
				return err
			}
		}
		return nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				if err := runTask(i, fn); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// runTask executes one task under the depth gauge and latency histogram.
func runTask(i int, fn func(i int) error) error {
	mDepth.Add(1)
	start := time.Now()
	err := fn(i)
	mTaskSecs.Observe(time.Since(start).Seconds())
	mDepth.Add(-1)
	return err
}
