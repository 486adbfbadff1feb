package paillier

import (
	"context"
	"crypto/rand"
	"sync"
	"time"

	"ppgnn/internal/parallel"
)

// Background Precomputer refiller (DESIGN.md §15). Under sustained
// traffic a pool filled once at startup drains and every later
// encryption falls off the pooled-randomness cliff onto the full online
// modexp. The refiller keeps the pool topped up from the background: it
// watches the pool's own drain rate (an EWMA of factors consumed per
// tick, the same α=1/8 smoothing svc's admission EWMA uses), sizes a
// target a few ticks of headroom deep, and fills the deficit in small
// chunks so a consumer never waits behind one monolithic fill's
// appends.

// RefillerOptions tune one background refill loop; zero values take the
// defaults documented on each field.
type RefillerOptions struct {
	// Pool fans the factor exponentiations (nil = process default).
	Pool *parallel.Pool
	// Interval is the tick period (default 5ms).
	Interval time.Duration
	// MaxChunk caps factors produced per tick (default 64), keeping
	// each fill's pool append small and consumers fairly interleaved.
	MaxChunk int
	// Min is the target floor even with no observed drain (default 0).
	Min int
	// Max caps the target so an admission burst cannot balloon the
	// pool's memory (default 4096).
	Max int
	// Target, when set, contributes an external size hint each tick —
	// svc derives one from its admission-cost EWMA and in-flight count.
	// The effective target is max(drain-based, Min, Target()), capped
	// at Max.
	Target func() int
}

// StartRefiller starts the background loop and returns its stop
// function. The loop draws from crypto/rand, so a refilled pool's
// consumers no longer see deterministic pool contents: seeded-reader
// byte-identity tests must pause the refiller (the batch.go ordering
// contract). Stop cancels any in-flight fill, waits for the loop to
// exit, and is idempotent. The Precomputer remains fully usable after
// stop — it just stops being refilled.
func (p *Precomputer) StartRefiller(o RefillerOptions) (stop func()) {
	if o.Interval <= 0 {
		o.Interval = 5 * time.Millisecond
	}
	if o.MaxChunk <= 0 {
		o.MaxChunk = 64
	}
	if o.Max <= 0 {
		o.Max = 4096
	}
	if o.Min < 0 {
		o.Min = 0
	}
	if o.Min > o.Max {
		o.Min = o.Max
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(o.Interval)
		defer tick.Stop()
		last := p.taken.Load()
		var ewma float64 // factors drained per tick, α = 1/8
		var published int64
		defer func() { gRefillTarget.Add(-published) }()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			cur := p.taken.Load()
			ewma += (float64(cur-last) - ewma) / 8
			last = cur
			// Eight ticks of headroom over the smoothed drain rate: deep
			// enough to ride out a burst, shallow enough to track decay.
			want := int(8 * ewma)
			if o.Target != nil {
				if t := o.Target(); t > want {
					want = t
				}
			}
			if want < o.Min {
				want = o.Min
			}
			if want > o.Max {
				want = o.Max
			}
			gRefillTarget.Add(int64(want) - published)
			published = int64(want)
			n := want - p.Size()
			if n <= 0 {
				continue
			}
			if n > o.MaxChunk {
				n = o.MaxChunk
			}
			if err := p.FillCtx(ctx, o.Pool, rand.Reader, n); err != nil {
				if ctx.Err() != nil {
					return
				}
				continue // transient; the next tick retries
			}
			mRefillFills.Inc()
			mRefillFactors.Add(int64(n))
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			cancel()
			<-done
		})
	}
}
