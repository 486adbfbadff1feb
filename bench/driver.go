package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"ppgnn/internal/geo"
)

// sample is one attempted query as its client saw it.
type sample struct {
	latency time.Duration // start (open loop: due time) → decoded answer
	user    time.Duration // BuildQuery + DecryptAnswer on the client goroutine
	lag     time.Duration // open loop: how late the generator handed it over
	cycle   time.Duration // closed loop: the client's whole turn, write batch included
	cpu     time.Duration // closed loop: CPU time the process used during the turn
	records int
	err     error        // the protocol failed or refused
	verify  func() error // the oracle, run after the window so it costs the window nothing
}

// query runs one protocol round for g over c's connection. The benchmark
// calls BuildQuery, Pool.Process and DecryptAnswer itself so that user time
// is separated from the round trip. A zero start means "now".
func (c *client) query(g *group, start time.Time) sample {
	e := c.e
	// With churn the answer depends on the database state; the single
	// client makes no write until this query returns.
	plain := e.plainAnswer(g)
	t0 := time.Now()
	if start.IsZero() {
		start = t0
	}
	q, locs, err := g.g.BuildQuery(c.meter)
	if err != nil {
		return sample{err: fmt.Errorf("BuildQuery: %w", err)}
	}
	built := time.Now()
	ans, err := c.pool.Process(q, locs)
	if err != nil {
		return sample{err: fmt.Errorf("Process: %w", err)}
	}
	back := time.Now()
	recs, err := g.g.DecryptAnswer(ans, c.meter)
	if err != nil {
		return sample{err: fmt.Errorf("DecryptAnswer: %w", err)}
	}
	done := time.Now()
	return sample{
		latency: done.Sub(start),
		user:    built.Sub(t0) + done.Sub(back),
		records: len(recs),
		verify: func() error {
			want, err := e.expected(g, plain, q, locs)
			if err != nil {
				return err
			}
			return samePoints(recs, want, geo.UnitRect)
		},
	}
}

// writeBatch applies one seeded churn batch straight to the LSP, as the
// operator of a dynamic database would. A static index panics in
// Insert/Delete; that is reported as a failed cycle, not a crash.
func (e *env) writeBatch() (insDur, delDur time.Duration, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("write batch: %v", r)
		}
	}()
	ins, del := e.churn.nextBatch(e.w.Churn)
	lsp := e.lsps[0]
	t0 := time.Now()
	for _, it := range ins {
		lsp.Insert(it)
	}
	t1 := time.Now()
	for _, it := range del {
		if !lsp.Delete(it) {
			return 0, 0, fmt.Errorf("write batch: POI %d to delete is not in the index", it.ID)
		}
	}
	t2 := time.Now()
	e.churn.applied(ins, del)
	return t1.Sub(t0), t2.Sub(t1), nil
}

// phase is the outcome of one loop over the system.
type phase struct {
	samples []sample
	window  time.Duration

	inserts, deletes     int
	insertDur, deleteDur time.Duration
}

// runClosed drives every client in a closed loop: a client starts its next
// cycle (write batch, if any, then query) when the previous one returns.
// Each client stops after perClient cycles, or, with perClient 0, at the
// first cycle boundary past d. In-flight queries finish and count; the
// window runs to the last completion.
func (e *env) runClosed(d time.Duration, perClient int) phase {
	var (
		mu sync.Mutex
		ph phase
		wg sync.WaitGroup
	)
	start := time.Now()
	for _, c := range e.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for n := 0; ; n++ {
				if perClient > 0 && n >= perClient || perClient == 0 && time.Since(start) >= d {
					return
				}
				var s sample
				var insDur, delDur time.Duration
				var werr error
				turn, cpu := time.Now(), processCPU()
				if e.churn != nil {
					insDur, delDur, werr = e.writeBatch()
				}
				if werr != nil {
					s = sample{err: werr}
				} else {
					s = c.query(c.nextGroup(), time.Time{})
				}
				s.cycle, s.cpu = time.Since(turn), processCPU()-cpu
				mu.Lock()
				ph.samples = append(ph.samples, s)
				if e.churn != nil && werr == nil {
					ph.inserts += e.w.Churn
					ph.insertDur += insDur
					if delDur > 0 {
						ph.deletes += e.w.Churn
						ph.deleteDur += delDur
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	ph.window = time.Since(start)
	return ph
}

// arrivalOffsets is a Poisson process of the given rate conditioned on its
// count: round(rate·seconds) arrival times, independent and uniform over
// the window, sorted. Fixing the count keeps the offered load identical
// across seeds while gaps stay exponential-like and bursty.
func arrivalOffsets(rate, seconds float64, seed int64) []time.Duration {
	n := int(rate*seconds + 0.5)
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Float64() * seconds * float64(time.Second))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// runOpenLoop hands arrival i to worker i%workers at its due time,
// whether or not earlier arrivals have been served, and returns every
// sample, stamped with how late its hand-over ran, and the time to the
// last completion. handle gets the due time and must measure from it, so that
// the wait behind a stalled predecessor counts.
func runOpenLoop(offsets []time.Duration, workers int, handle func(worker int, due time.Time) sample) phase {
	type arrival struct {
		due time.Time
		lag time.Duration
	}
	queues := make([]chan arrival, workers)
	for i := range queues {
		// Sized to the number of sends, so the generator never blocks on
		// a busy worker.
		queues[i] = make(chan arrival, len(offsets))
	}
	var (
		mu sync.Mutex
		ph phase
		wg sync.WaitGroup
	)
	for i := range queues {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for a := range queues[i] {
				s := handle(i, a.due)
				s.lag = a.lag
				mu.Lock()
				ph.samples = append(ph.samples, s)
				mu.Unlock()
			}
		}(i)
	}
	start := time.Now()
	for i, off := range offsets {
		due := start.Add(off)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		queues[i%workers] <- arrival{due: due, lag: time.Since(due)}
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	ph.window = time.Since(start)
	return ph
}

// runOpen is the open loop over the real system: one worker per client
// connection, groups taking turns on each.
func (e *env) runOpen(offsets []time.Duration) phase {
	return runOpenLoop(offsets, len(e.clients), func(worker int, due time.Time) sample {
		c := e.clients[worker]
		return c.query(c.nextGroup(), due)
	})
}

// tally runs the oracles and splits a phase's samples into verified
// completions and failures. A failed query has no latency: it is missing
// from every timing, and counted in failed.
type tally struct {
	attempted, failed int
	latency, user     []time.Duration
	cycle, cpu        []time.Duration
	lags              []time.Duration // of every attempt, failed ones too
	records           int
	firstErr          error
}

func (ph phase) tally() tally {
	var t tally
	for _, s := range ph.samples {
		t.attempted++
		t.lags = append(t.lags, s.lag)
		err := s.err
		if err == nil {
			err = s.verify()
		}
		if err != nil {
			t.failed++
			if t.firstErr == nil {
				t.firstErr = err
			}
			continue
		}
		t.latency = append(t.latency, s.latency)
		t.user = append(t.user, s.user)
		t.cycle = append(t.cycle, s.cycle)
		t.cpu = append(t.cpu, s.cpu)
		t.records += s.records
	}
	return t
}
