// Package load is the open-loop load harness of DESIGN.md §12: it
// drives sustained concurrent traffic against a PPGNN service at a fixed
// Poisson arrival rate, measures per-stage latency distributions through
// internal/obs histograms, classifies every failure into the closed
// error taxonomy, and asserts SLOs. With an
// Oracle configured it is also a conformance suite: every decrypted
// answer delivered under load — retries, shed connections, and injected
// faultnet faults included — is checked point-for-point against the
// plaintext gnn engine, so correctness under concurrency is a gate, not
// folklore.
//
// A run has three stages. Warmup traffic fills connection pools, OS
// buffers, and allocator caches; its numbers are recorded but never
// gated. Measure is the scored window. Drain stops arrivals and waits
// out in-flight queries so the measure numbers are complete rather than
// censored; queries still unfinished when the drain deadline passes are
// counted as abandoned. Arrivals are attributed to the stage of their
// *scheduled* time, so a query fired late in measure and finishing
// during drain still scores.
package load

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ppgnn/internal/core"
	"ppgnn/internal/obs"
)

// Runner executes one arrival's query. Implementations must be safe for
// concurrent calls; Fleet is the standard one.
type Runner interface {
	Run(ctx context.Context, arrival int64) error
}

// Config parameterizes one open-loop run.
type Config struct {
	// Rate is the offered Poisson arrival rate in queries per second.
	Rate float64
	// Warmup, Measure, Drain are the stage durations. Measure must be
	// positive; Warmup defaults to 0, Drain to QueryTimeout-scale 30s.
	Warmup, Measure, Drain time.Duration
	// MaxInFlight caps concurrently running queries; arrivals beyond it
	// are dropped and counted (default 512). The cap keeps an overloaded
	// open-loop run from growing goroutines without bound; drops are an
	// overload signal the SLO can gate on.
	MaxInFlight int
	// Seed drives the arrival schedule (default 1).
	Seed int64
	// OracleChecked records in the report that the runner verifies
	// answers (Fleet with a non-nil Oracle).
	OracleChecked bool
	// Obs receives the harness's telemetry (nil = obs.Default).
	Obs *obs.Registry
	// Logf, when set, receives stage-transition progress lines.
	Logf func(format string, args ...any)
}

// stageAgg accumulates one stage's numbers.
type stageAgg struct {
	name     string
	duration time.Duration

	arrivals atomic.Int64
	dropped  atomic.Int64
	done     atomic.Int64
	ok       atomic.Int64

	mu       sync.Mutex
	outcomes map[string]int64

	hist *obs.Histogram
}

// Driver runs the open-loop generator against a Runner.
type Driver struct {
	cfg    Config
	runner Runner

	reg      *obs.Registry
	inflight atomic.Int64
	peak     atomic.Int64
	wg       sync.WaitGroup

	stages [2]*stageAgg // warmup, measure
}

// NewDriver validates the config and binds the telemetry.
func NewDriver(cfg Config, r Runner) (*Driver, error) {
	if r == nil {
		return nil, fmt.Errorf("load: driver needs a runner")
	}
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("load: rate %v must be positive", cfg.Rate)
	}
	if cfg.Measure <= 0 {
		return nil, fmt.Errorf("load: measure window %v must be positive", cfg.Measure)
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 512
	}
	if cfg.Drain <= 0 {
		cfg.Drain = 30 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.Default()
	}
	d := &Driver{cfg: cfg, runner: r, reg: reg}
	names := [2]string{"warmup", "measure"}
	durations := [2]time.Duration{cfg.Warmup, cfg.Measure}
	for i := range d.stages {
		d.stages[i] = &stageAgg{
			name:     names[i],
			duration: durations[i],
			outcomes: make(map[string]int64),
			hist:     reg.Histogram("load_query_seconds", obs.TimeBuckets, obs.L("stage", names[i])),
		}
	}
	return d, nil
}

func (d *Driver) logf(format string, args ...any) {
	if d.cfg.Logf != nil {
		d.cfg.Logf(format, args...)
	}
}

// Run executes the warmup + measure + drain timeline and returns the
// report. Cancelling the context stops arrivals early and fails the run.
func (d *Driver) Run(ctx context.Context) (*Report, error) {
	sched := newSchedule(d.cfg.Rate, d.cfg.Seed)
	start := time.Now()
	warmEnd := start.Add(d.cfg.Warmup)
	measEnd := warmEnd.Add(d.cfg.Measure)

	d.logf("load: poisson arrivals at %.3g/s — warmup %v, measure %v, drain up to %v",
		d.cfg.Rate, d.cfg.Warmup, d.cfg.Measure, d.cfg.Drain)

	lagHist := d.reg.Histogram("load_sched_lag_seconds", obs.TimeBuckets)
	inflightGauge := d.reg.Gauge("load_inflight")

	var arrival int64
	announced := 0 // stages whose start has been logged
	next := start
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()

arrivals:
	for next.Before(measEnd) {
		if wait := time.Until(next); wait > 0 {
			timer.Reset(wait)
			select {
			case <-ctx.Done():
				break arrivals
			case <-timer.C:
			}
		} else if err := ctx.Err(); err != nil {
			break arrivals
		}
		// Attribute by scheduled time: deterministic under lag.
		agg := d.stages[0]
		if !next.Before(warmEnd) {
			agg = d.stages[1]
			if announced < 2 {
				announced = 2
				d.logf("load: measure window open")
			}
		} else if announced < 1 {
			announced = 1
			d.logf("load: warmup")
		}
		if lag := time.Since(next); lag > 0 {
			lagHist.Observe(lag.Seconds())
		} else {
			lagHist.Observe(0)
		}
		d.fire(ctx, arrival, agg, inflightGauge)
		arrival++
		next = next.Add(sched.next())
	}

	// Drain: no new arrivals; wait out the in-flight tail.
	d.logf("load: draining %d in-flight queries", d.inflight.Load())
	drained := make(chan struct{})
	go func() {
		d.wg.Wait()
		close(drained)
	}()
	abandoned := int64(0)
	timer.Reset(d.cfg.Drain)
	select {
	case <-drained:
	case <-timer.C:
		abandoned = d.inflight.Load()
		d.logf("load: drain deadline passed with %d queries still in flight", abandoned)
	case <-ctx.Done():
		abandoned = d.inflight.Load()
	}

	rep := d.report(arrival, abandoned, lagHist)
	if err := ctx.Err(); err != nil {
		return rep, fmt.Errorf("load: run cancelled: %w", err)
	}
	return rep, nil
}

// fire launches one arrival's worker, or drops it at the in-flight cap.
func (d *Driver) fire(ctx context.Context, arrival int64, agg *stageAgg, inflightGauge *obs.Gauge) {
	agg.arrivals.Add(1)
	d.reg.Counter("load_arrivals_total", obs.L("stage", agg.name)).Inc()
	if d.inflight.Load() >= int64(d.cfg.MaxInFlight) {
		agg.dropped.Add(1)
		d.reg.Counter("load_dropped_total", obs.L("stage", agg.name)).Inc()
		return
	}
	cur := d.inflight.Add(1)
	inflightGauge.Set(cur)
	for {
		p := d.peak.Load()
		if cur <= p || d.peak.CompareAndSwap(p, cur) {
			break
		}
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		begin := time.Now()
		err := d.runner.Run(ctx, arrival)
		elapsed := time.Since(begin)
		inflightGauge.Set(d.inflight.Add(-1))
		d.complete(agg, elapsed, err)
	}()
}

// complete records one finished query under its arrival's stage.
func (d *Driver) complete(agg *stageAgg, elapsed time.Duration, err error) {
	// An oracle disagreement is the one failure only the driver can see;
	// every other result takes the shared session taxonomy.
	outcome := core.Outcome(err)
	var mm *MismatchError
	if errors.As(err, &mm) {
		outcome = "mismatch"
	}
	agg.done.Add(1)
	if err == nil {
		agg.ok.Add(1)
		if d.cfg.OracleChecked {
			d.reg.Counter("load_oracle_total", obs.L("verdict", "match")).Inc()
		}
	} else if outcome == "mismatch" {
		d.reg.Counter("load_oracle_total", obs.L("verdict", "mismatch")).Inc()
	}
	agg.mu.Lock()
	agg.outcomes[outcome]++
	agg.mu.Unlock()
	d.reg.Counter("load_sessions_total", obs.L("stage", agg.name), obs.L("outcome", outcome)).Inc()
	agg.hist.Observe(elapsed.Seconds())
}

// report freezes the run.
func (d *Driver) report(arrivals, abandoned int64, lagHist *obs.Histogram) *Report {
	rep := &Report{
		Rate:          d.cfg.Rate,
		WarmupSec:     d.cfg.Warmup.Seconds(),
		MeasureSec:    d.cfg.Measure.Seconds(),
		DrainSec:      d.cfg.Drain.Seconds(),
		Seed:          d.cfg.Seed,
		Cores:         runtime.NumCPU(),
		MaxInFlight:   d.cfg.MaxInFlight,
		OracleChecked: d.cfg.OracleChecked,
		Arrivals:      arrivals,
		Abandoned:     abandoned,
		PeakInFlight:  d.peak.Load(),
		SchedLagP99:   lagHist.Quantile(0.99),
	}
	for _, agg := range d.stages {
		sr := StageReport{
			Stage:    agg.name,
			Arrivals: agg.arrivals.Load(),
			Dropped:  agg.dropped.Load(),
			Done:     agg.done.Load(),
			OK:       agg.ok.Load(),
			Outcomes: make(map[string]int64),
		}
		agg.mu.Lock()
		for k, v := range agg.outcomes {
			sr.Outcomes[k] = v
		}
		agg.mu.Unlock()
		sr.Mismatches = sr.Outcomes["mismatch"]
		sr.LatencyP50 = agg.hist.Quantile(0.50)
		sr.LatencyP95 = agg.hist.Quantile(0.95)
		sr.LatencyP99 = agg.hist.Quantile(0.99)
		if n := agg.hist.Count(); n > 0 {
			sr.LatencyMean = agg.hist.Sum() / float64(n)
		}
		if secs := agg.duration.Seconds(); secs > 0 {
			sr.OfferedQPS = d.cfg.Rate
			sr.AchievedQPS = float64(sr.OK) / secs
		}
		rep.Stages = append(rep.Stages, sr)
	}
	return rep
}
