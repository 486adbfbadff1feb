package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"ppgnn/internal/core"
	"ppgnn/internal/faultnet"
	"ppgnn/internal/geo"
	"ppgnn/internal/group"
	"ppgnn/internal/obs"
	"ppgnn/internal/transport"
)

// ObsReport is the payload of BENCH_obs.json: the telemetry of a seeded
// n=5, t=3 soak over real TCP with injected faultnet latency. Phases
// carries the per-phase latency distributions (p50/p95/p99 per outcome);
// Snapshot is the complete registry state the -metrics-addr endpoint
// would have served at the end of the run.
type ObsReport struct {
	N         int   `json:"n"`
	T         int   `json:"t"`
	Quorum    int   `json:"quorum"`
	Queries   int   `json:"queries"`
	KeyBits   int   `json:"keybits"`
	Seed      int64 `json:"seed"`
	LatencyMS int64 `json:"latency_ms"`

	OK     int `json:"ok"`     // sessions that returned an answer
	Failed int `json:"failed"` // sessions that returned an error

	Phases      []obs.HistSnap `json:"phases"` // ppgnn_phase_seconds rows
	PoolHitRate float64        `json:"paillier_pool_hit_rate"`
	Retries     int64          `json:"transport_retries"`
	Dropouts    int64          `json:"group_dropouts"`

	Snapshot obs.Snapshot `json:"snapshot"`
}

// obsLatency is the faultnet latency the soak injects on every link.
const obsLatency = 5 * time.Millisecond

// latencySchedule builds a fault schedule of n latency-only entries, so
// every connection a dialer opens during the soak carries the delay.
func latencySchedule(seed int64, n int) []faultnet.Faults {
	s := make([]faultnet.Faults, n)
	for i := range s {
		s[i] = faultnet.Faults{Seed: seed + int64(i), Latency: obsLatency}
	}
	return s
}

// ObsSnapshot runs the observability soak: an n=5 group with a t=3
// threshold key and quorum 3, querying a real transport.Server through a
// retrying Pool, every link impaired with obsLatency of faultnet
// latency and a few scheduled connection faults (one mid-reply reset on
// the LSP path, one member whose first session is unreachable). It
// resets the process registry first, so the report reflects this run
// alone.
//
// The run exercises every instrument family of DESIGN.md §9 on purpose:
// phase spans (collect/partition/query/lsp/decrypt), transport retry and
// dial counters, group dropout/re-partition counters, and the paillier
// Precomputer pool (filled for roughly half the encryptions, so both the
// pool and online paths appear).
func (c Config) ObsSnapshot() (*ObsReport, error) {
	c = c.gateDefaults()
	reg := obs.Default()
	reg.Reset()

	rng := rand.New(rand.NewSource(c.Seed))
	const n, t, quorum = 5, 3, 3
	locs := make([]geo.Point, n)
	for i := range locs {
		locs[i] = geo.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	p := core.DefaultParams(n)
	p.KeyBits = c.KeyBits
	p.D = 6
	p.Delta = 12
	p.K = 6
	p.Variant = core.VariantPPGNN
	p.NoSanitize = true
	coord, shares, err := core.NewThresholdCoordinator(p, locs[0], rng, t)
	if err != nil {
		return nil, err
	}
	// Half a query's worth of offline randomness per query: the pool
	// serves the first encryptions of each round and then drains, so the
	// report shows both source=pool and source=online.
	dp, err := coord.DeltaPrime(n)
	if err != nil {
		return nil, err
	}
	if _, err := coord.Precompute(c.Queries * dp / 2); err != nil {
		return nil, err
	}

	// The LSP behind real TCP, queried through a retrying Pool whose
	// first dial is refused — a guaranteed-retryable fault, so the soak
	// always exercises the retry counters.
	lsp := core.NewLSP(c.Items, c.Space)
	srv := transport.NewServer(lsp)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	lspSched := latencySchedule(c.Seed, 4*c.Queries)
	lspSched[0].FailDial = true
	pool := transport.NewPool(addr.String())
	pool.Size = 2
	pool.Seed = c.Seed
	pool.RetryBase = 2 * time.Millisecond
	pool.RetryMax = 20 * time.Millisecond
	pool.DialFunc = faultnet.Dialer(lspSched...)
	defer pool.Close()

	// Four member processes behind real TCP. Member 1's first two dials
	// fail outright: its first session drops it and re-partitions, and a
	// later session welcomes it back.
	links := make([]group.Link, n-1)
	for i := 0; i < n-1; i++ {
		id := i + 1
		m := group.NewMember(locs[id], nil, rand.New(rand.NewSource(c.Seed+int64(id))))
		m.TK, m.Share = coord.TK, shares[i]
		msrv := transport.NewMemberServer(m)
		maddr, err := msrv.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer msrv.Close()
		sched := latencySchedule(c.Seed+int64(100*id), 8*c.Queries)
		if id == 1 {
			sched[0].FailDial = true
			sched[1].FailDial = true
		}
		link := group.DialMember(maddr.String())
		link.DialFunc = faultnet.Dialer(sched...)
		defer link.Close()
		links[i] = link
	}

	report := &ObsReport{
		N: n, T: t, Quorum: quorum,
		Queries: c.Queries, KeyBits: c.KeyBits, Seed: c.Seed,
		LatencyMS: obsLatency.Milliseconds(),
	}
	for q := 0; q < c.Queries; q++ {
		sess, err := group.NewSession(coord, links, group.Config{
			Quorum:        quorum,
			MemberTimeout: 2 * time.Second,
			Retries:       1,
			RetryBase:     2 * time.Millisecond,
			RetryMax:      20 * time.Millisecond,
			Seed:          c.Seed + int64(q),
		})
		if err != nil {
			return nil, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		out, err := sess.Run(ctx, pool)
		cancel()
		if err != nil {
			report.Failed++
			continue
		}
		if len(out.Contributors) < quorum {
			return nil, fmt.Errorf("obs soak query %d: %d contributors below quorum %d",
				q, len(out.Contributors), quorum)
		}
		report.OK++
	}
	if report.OK == 0 {
		return nil, fmt.Errorf("obs soak: all %d queries failed", c.Queries)
	}

	snap := reg.Snapshot()
	report.Snapshot = *snap
	for _, h := range snap.Histograms {
		if h.Name == "ppgnn_phase_seconds" {
			report.Phases = append(report.Phases, h)
		}
	}
	pooled := snap.Counter("paillier_precompute_encrypt_total", obs.L("source", "pool"))
	online := snap.Counter("paillier_precompute_encrypt_total", obs.L("source", "online"))
	if pooled+online > 0 {
		report.PoolHitRate = float64(pooled) / float64(pooled+online)
	}
	for _, cs := range snap.Counters {
		switch cs.Name {
		case "transport_retries_total":
			report.Retries += cs.Value
		case "group_dropouts_total":
			report.Dropouts += cs.Value
		}
	}
	return report, nil
}

// Check enforces the soak: at least one session answered, and the
// per-phase latency histograms were recorded.
func (r *ObsReport) Check() error {
	if r.OK == 0 {
		return fmt.Errorf("obs soak: no session answered (%d failed)", r.Failed)
	}
	if len(r.Phases) == 0 {
		return fmt.Errorf("obs soak: report has no ppgnn_phase_seconds rows")
	}
	return nil
}
