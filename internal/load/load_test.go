package load

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ppgnn/internal/core"
	"ppgnn/internal/dataset"
	"ppgnn/internal/faultnet"
	"ppgnn/internal/geo"
	"ppgnn/internal/gnn"
	"ppgnn/internal/obs"
	"ppgnn/internal/transport"
)

func TestScheduleDeterministic(t *testing.T) {
	a := newSchedule(100, 7)
	b := newSchedule(100, 7)
	var sum time.Duration
	for i := 0; i < 1000; i++ {
		ga, gb := a.next(), b.next()
		if ga != gb {
			t.Fatalf("gap %d diverges under equal seeds: %v vs %v", i, ga, gb)
		}
		if ga < 0 {
			t.Fatalf("negative gap %v", ga)
		}
		sum += ga
	}
	// 1000 arrivals at 100/s should span ~10s; Poisson within ±30%.
	mean := sum / 1000
	want := 10 * time.Millisecond
	if mean < want*7/10 || mean > want*13/10 {
		t.Fatalf("mean gap %v, want ≈%v", mean, want)
	}
}

// TestClassify pins the driver's one classification of its own: an
// oracle disagreement, bare or wrapped, even beside a typed shed, is
// "mismatch" in the stage outcomes and the oracle counter; every other
// result takes core.Outcome (tabled in internal/core).
func TestClassify(t *testing.T) {
	reg := obs.NewRegistry()
	d, err := NewDriver(Config{Rate: 1, Measure: time.Second, Obs: reg}, &blockingRunner{})
	if err != nil {
		t.Fatal(err)
	}
	agg := d.stages[1]
	for name, err := range map[string]error{
		"bare":          &MismatchError{Group: 1, Rank: 0},
		"wrapped":       fmt.Errorf("q: %w", &MismatchError{Rank: -1}),
		"beside a shed": errors.Join(&core.RemoteError{Msg: core.BusyMessage}, &MismatchError{Rank: 2}),
	} {
		before := agg.outcomes["mismatch"]
		d.complete(agg, time.Millisecond, err)
		if agg.outcomes["mismatch"] != before+1 {
			t.Errorf("%s: outcomes = %v, want one more mismatch", name, agg.outcomes)
		}
	}
	d.complete(agg, time.Millisecond, &core.RemoteError{Msg: core.BusyMessage})
	if agg.outcomes["busy"] != 1 {
		t.Errorf("a shed without a mismatch: outcomes = %v, want one busy", agg.outcomes)
	}
	if got := reg.Snapshot().Counter("load_oracle_total", obs.L("verdict", "mismatch")); got != 3 {
		t.Errorf("load_oracle_total{verdict=mismatch} = %d, want 3", got)
	}
}

// loadRig is one in-process LSP behind real TCP plus its plaintext
// oracle.
type loadRig struct {
	lsp  *core.LSP
	srv  *transport.Server
	addr string
}

func newLoadRig(t *testing.T) *loadRig {
	t.Helper()
	lsp := core.NewLSP(dataset.Synthetic(41, 1500), geo.UnitRect)
	srv := transport.NewServer(lsp)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return &loadRig{lsp: lsp, srv: srv, addr: addr.String()}
}

func (r *loadRig) oracle() Oracle {
	return func(q []geo.Point, k int) []gnn.Result { return r.lsp.Search(q, k, gnn.Sum) }
}

func testFleetConfig(addr string, oracle Oracle) FleetConfig {
	return FleetConfig{
		Addr:      addr,
		Groups:    4,
		GroupSize: 3,
		KeyBits:   192,
		Seed:      11,
		Oracle:    oracle,
	}
}

// The harness's core promise: an open-loop run against a live TCP server
// completes, every answer matches the plaintext oracle, and the report
// and registry agree on the numbers.
func TestDriverConformanceAgainstLiveServer(t *testing.T) {
	rig := newLoadRig(t)
	fleet, err := NewFleet(testFleetConfig(rig.addr, rig.oracle()))
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	reg := obs.NewRegistry()
	d, err := NewDriver(Config{
		Rate:          60,
		Warmup:        200 * time.Millisecond,
		Measure:       1200 * time.Millisecond,
		Drain:         15 * time.Second,
		Seed:          3,
		OracleChecked: true,
		Obs:           reg,
	}, fleet)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	m := rep.Stage("measure")
	if m == nil || rep.Stage("warmup") == nil {
		t.Fatalf("report stages incomplete: %+v", rep.Stages)
	}
	if m.Arrivals == 0 || m.OK == 0 {
		t.Fatalf("measure stage empty: %s", m.Summary())
	}
	if got := rep.Mismatches(); got != 0 {
		t.Fatalf("%d oracle mismatches in a clean run", got)
	}
	if rep.Abandoned != 0 {
		t.Fatalf("%d queries abandoned with a 15s drain", rep.Abandoned)
	}
	if m.Done != m.Arrivals-m.Dropped {
		t.Fatalf("measure accounting broken: done=%d arrivals=%d dropped=%d", m.Done, m.Arrivals, m.Dropped)
	}
	if m.LatencyP50 <= 0 || m.LatencyP95 < m.LatencyP50 || m.LatencyP99 < m.LatencyP95 {
		t.Fatalf("quantiles not monotone: %s", m.Summary())
	}
	if rep.PeakInFlight < 1 {
		t.Fatalf("peak in-flight %d", rep.PeakInFlight)
	}

	snap := reg.Snapshot()
	if got := snap.Counter("load_sessions_total", obs.L("stage", "measure"), obs.L("outcome", "ok")); got != m.OK {
		t.Fatalf("registry ok=%d, report ok=%d", got, m.OK)
	}
	if got := snap.Counter("load_oracle_total", obs.L("verdict", "match")); got != m.OK+rep.Stage("warmup").OK {
		t.Fatalf("oracle match counter %d, want %d", got, m.OK+rep.Stage("warmup").OK)
	}
	if h := snap.Histogram("load_query_seconds", obs.L("stage", "measure")); h == nil || h.Count != m.Done {
		t.Fatalf("measure latency histogram inconsistent with report")
	}

	if err := (SLO{P99: 10 * time.Second, MaxErrorRate: 0, MinThroughputFrac: 0.2}).Check(rep); err != nil {
		t.Fatalf("clean run violates a generous SLO: %v", err)
	}
}

// Faults injected mid-run — dropped dials, added latency, a mid-answer
// connection kill — must surface only as taxonomy entries and latency,
// never as a wrong answer.
func TestDriverFaultedRunStaysConformant(t *testing.T) {
	rig := newLoadRig(t)
	cfg := testFleetConfig(rig.addr, rig.oracle())
	cfg.DialFunc = func(group int) func(addr string) (net.Conn, error) {
		switch group {
		case 0: // first two dials refused: retry recovers, queries stay ok
			return faultnet.Dialer(
				faultnet.Faults{FailDial: true},
				faultnet.Faults{FailDial: true},
			)
		case 1: // first connection killed mid-answer: one session lost for good
			return faultnet.Dialer(faultnet.Faults{Seed: 1, ReadResetAfter: 40})
		case 2: // a slow link
			return faultnet.Dialer(
				faultnet.Faults{Seed: 2, Latency: 2 * time.Millisecond},
				faultnet.Faults{Seed: 3, Latency: 2 * time.Millisecond},
			)
		default:
			return nil // clean
		}
	}
	fleet, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	reg := obs.NewRegistry()
	d, err := NewDriver(Config{
		Rate:          50,
		Measure:       1200 * time.Millisecond,
		Drain:         15 * time.Second,
		Seed:          5,
		OracleChecked: true,
		Obs:           reg,
	}, fleet)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Mismatches(); got != 0 {
		t.Fatalf("injected faults produced %d oracle mismatches — answers must stay correct or absent", got)
	}
	m := rep.Stage("measure")
	if m.OK == 0 {
		t.Fatalf("no successful queries under faults: %v", m.Outcomes)
	}
	// The mid-answer kill is past the retry-safety boundary; that one
	// session must be reported lost (outcome "error"), not retried into
	// a duplicate or silently dropped.
	total := m.Outcomes["error"] + rep.Stage("warmup").Outcomes["error"]
	if total == 0 {
		t.Fatalf("mid-answer kill not surfaced in the taxonomy: %v", m.Outcomes)
	}
	if err := (SLO{MaxErrorRate: 0.2, MaxAbandoned: 0}).Check(rep); err != nil {
		t.Fatalf("faulted run exceeds the relaxed SLO: %v", err)
	}
}

// A deliberately wrong oracle proves the conformance check actually
// bites: every answer must be flagged and the SLO must fail.
func TestDriverDetectsNonConformance(t *testing.T) {
	rig := newLoadRig(t)
	badOracle := func(q []geo.Point, k int) []gnn.Result {
		res := rig.lsp.Search(q, k, gnn.Sum)
		for i := range res {
			res[i].Item.P.X += 0.25 // shift every expected POI
		}
		return res
	}
	fleet, err := NewFleet(testFleetConfig(rig.addr, badOracle))
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	reg := obs.NewRegistry()
	d, err := NewDriver(Config{
		Rate: 30, Measure: 500 * time.Millisecond, Drain: 10 * time.Second,
		OracleChecked: true, Obs: reg,
	}, fleet)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mismatches() == 0 {
		t.Fatal("shifted oracle produced no mismatches — the conformance check is dead")
	}
	err = (SLO{MaxErrorRate: 1, MaxAbandoned: -1}).Check(rep)
	if err == nil || !strings.Contains(err.Error(), "oracle") {
		t.Fatalf("SLO tolerated oracle mismatches: %v", err)
	}
	snap := reg.Snapshot()
	if got := snap.Counter("load_oracle_total", obs.L("verdict", "mismatch")); got != rep.Mismatches() {
		t.Fatalf("mismatch counter %d, report %d", got, rep.Mismatches())
	}
}

// blockingRunner parks every query until released.
type blockingRunner struct {
	release chan struct{}
	calls   atomic.Int64
}

func (b *blockingRunner) Run(ctx context.Context, arrival int64) error {
	b.calls.Add(1)
	select {
	case <-b.release:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Overload: with every worker parked, arrivals beyond MaxInFlight must
// be dropped — bounded memory — and the drops must fail a strict SLO.
func TestDriverOverloadDropsAtCap(t *testing.T) {
	r := &blockingRunner{release: make(chan struct{})}
	reg := obs.NewRegistry()
	d, err := NewDriver(Config{
		Rate:    500,
		Measure: 300 * time.Millisecond, Drain: 5 * time.Second,
		MaxInFlight: 4, Obs: reg,
	}, r)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var rep *Report
	go func() {
		defer close(done)
		rep, err = d.Run(context.Background())
	}()
	time.Sleep(400 * time.Millisecond)
	close(r.release)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Stage("measure")
	dropped := m.Dropped + rep.Stage("warmup").Dropped
	if dropped == 0 {
		t.Fatalf("no drops at MaxInFlight=4 under 500/s: %+v", m)
	}
	if rep.PeakInFlight > 4 {
		t.Fatalf("peak in-flight %d exceeded the cap 4", rep.PeakInFlight)
	}
	if err := (SLO{MaxErrorRate: 0, MaxAbandoned: -1}).Check(rep); err == nil {
		t.Fatal("strict SLO ignored client-side drops")
	}
}

// Abandonment: queries still parked when the drain deadline passes are
// counted, and the default SLO rejects them.
func TestDriverDrainDeadlineAbandons(t *testing.T) {
	r := &blockingRunner{release: make(chan struct{})}
	defer close(r.release)
	d, err := NewDriver(Config{
		Rate:    100,
		Measure: 100 * time.Millisecond, Drain: 50 * time.Millisecond,
		MaxInFlight: 8, Obs: obs.NewRegistry(),
	}, r)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Abandoned == 0 {
		t.Fatal("blocked workers not reported as abandoned")
	}
	if err := (SLO{MaxErrorRate: 1}).Check(rep); err == nil {
		t.Fatal("SLO accepted abandoned queries")
	}
}

func TestSLOCheckNamesEveryViolation(t *testing.T) {
	rep := &Report{
		Abandoned: 2,
		Stages: []StageReport{
			{Stage: "warmup"},
			{
				Stage: "measure", Arrivals: 100, Done: 90, OK: 80, Dropped: 10,
				Outcomes:   map[string]int64{"ok": 80, "timeout": 8, "mismatch": 2},
				Mismatches: 2,
				LatencyP50: 0.5, LatencyP95: 2.0, LatencyP99: 5.0,
				OfferedQPS: 10, AchievedQPS: 4,
			},
		},
	}
	err := SLO{
		P95:               time.Second,
		MaxErrorRate:      0.05,
		MinThroughputFrac: 0.8,
	}.Check(rep)
	if err == nil {
		t.Fatal("violating report passed")
	}
	for _, want := range []string{"oracle", "p95", "error rate", "qps", "abandoned"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("SLO error does not name the %s violation: %v", want, err)
		}
	}
	// A compliant report passes the same SLO.
	good := &Report{Stages: []StageReport{{
		Stage: "measure", Arrivals: 100, Done: 100, OK: 100,
		LatencyP50: 0.01, LatencyP95: 0.02, LatencyP99: 0.03,
		OfferedQPS: 10, AchievedQPS: 9.9,
	}}}
	if err := (SLO{P95: time.Second, MaxErrorRate: 0.05, MinThroughputFrac: 0.8}).Check(good); err != nil {
		t.Fatalf("compliant report failed: %v", err)
	}
}

func TestNewDriverValidation(t *testing.T) {
	r := &blockingRunner{release: make(chan struct{})}
	if _, err := NewDriver(Config{Rate: 0, Measure: time.Second}, r); err == nil {
		t.Error("rate 0 accepted")
	}
	if _, err := NewDriver(Config{Rate: 1}, r); err == nil {
		t.Error("zero measure window accepted")
	}
	if _, err := NewDriver(Config{Rate: 1, Measure: time.Second}, nil); err == nil {
		t.Error("nil runner accepted")
	}
}
