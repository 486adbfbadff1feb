package load

import "fmt"

// Report is one open-loop run, JSON-ready: the load gate's report
// embeds it once per pass. Latency quantiles come from the obs
// load_query_seconds histograms (bucket-interpolated, like the
// -metrics-addr endpoint reports them), so the gate and the live
// introspection surface can never disagree about what a p95 is.
type Report struct {
	Rate          float64 `json:"rate"` // offered Poisson arrivals/second
	WarmupSec     float64 `json:"warmup_sec"`
	MeasureSec    float64 `json:"measure_sec"`
	DrainSec      float64 `json:"drain_sec"`
	Seed          int64   `json:"seed"`
	Cores         int     `json:"cores"` // runtime.NumCPU, honest
	MaxInFlight   int     `json:"max_in_flight"`
	OracleChecked bool    `json:"oracle_checked"`

	Arrivals     int64   `json:"arrivals"`  // total fired
	Abandoned    int64   `json:"abandoned"` // still in flight past the drain deadline
	PeakInFlight int64   `json:"peak_in_flight"`
	SchedLagP99  float64 `json:"sched_lag_p99_sec"` // generator health: offered rate is honest only if ~0

	Stages []StageReport `json:"stages"` // warmup, measure
}

// StageReport is one stage's numbers. Completions are attributed to the
// stage of their arrival's scheduled time.
type StageReport struct {
	Stage    string           `json:"stage"`
	Arrivals int64            `json:"arrivals"`
	Dropped  int64            `json:"dropped"` // client-side drops at MaxInFlight
	Done     int64            `json:"done"`
	OK       int64            `json:"ok"`
	Outcomes map[string]int64 `json:"outcomes"` // closed taxonomy → count

	Mismatches int64 `json:"oracle_mismatches"`

	LatencyP50  float64 `json:"latency_p50_sec"`
	LatencyP95  float64 `json:"latency_p95_sec"`
	LatencyP99  float64 `json:"latency_p99_sec"`
	LatencyMean float64 `json:"latency_mean_sec"`

	OfferedQPS  float64 `json:"offered_qps"`
	AchievedQPS float64 `json:"achieved_qps"` // OK completions / stage duration
}

// Stage returns the named stage's report, or nil.
func (r *Report) Stage(name string) *StageReport {
	for i := range r.Stages {
		if r.Stages[i].Stage == name {
			return &r.Stages[i]
		}
	}
	return nil
}

// Mismatches sums oracle disagreements across every stage — warmup
// included, because a wrong answer is a wrong answer whenever it
// happened.
func (r *Report) Mismatches() int64 {
	var n int64
	for _, s := range r.Stages {
		n += s.Mismatches
	}
	return n
}

// ErrorRate is the fraction of a stage's arrivals that did not come back
// ok: failures, drops, and (for the whole run's tail) nothing else —
// abandoned queries belong to the run, not a stage.
func (s *StageReport) ErrorRate() float64 {
	if s.Arrivals == 0 {
		return 0
	}
	return float64(s.Arrivals-s.OK) / float64(s.Arrivals)
}

// Summary renders the stage as one human line.
func (s *StageReport) Summary() string {
	return fmt.Sprintf("%-7s arrivals=%d ok=%d dropped=%d err=%.3f p50=%.4fs p95=%.4fs p99=%.4fs achieved=%.2f/s",
		s.Stage, s.Arrivals, s.OK, s.Dropped, s.ErrorRate(), s.LatencyP50, s.LatencyP95, s.LatencyP99, s.AchievedQPS)
}
