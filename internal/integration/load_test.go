package integration

import (
	"context"
	"net"
	"testing"
	"time"

	"ppgnn/internal/core"
	"ppgnn/internal/dataset"
	"ppgnn/internal/faultnet"
	"ppgnn/internal/geo"
	"ppgnn/internal/gnn"
	"ppgnn/internal/load"
	"ppgnn/internal/obs"
	"ppgnn/internal/transport"
)

// TestLoadSoakFaultedConformance is the whole-stack soak: an LSP behind
// real TCP with a connection cap (so the server itself sheds under
// burst), open-loop Poisson traffic from a fleet of client groups, and
// seeded faultnet schedules cutting connections mid-run — while every
// answer that does come back is checked point-for-point against the
// plaintext kGNN engine. This is the cross-module scenario none of
// internal/load, transport, or core can test alone: crypto + partition +
// wire framing + retry + shedding under sustained concurrency.
func TestLoadSoakFaultedConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("sustained-traffic soak")
	}
	lsp := core.NewLSP(dataset.Synthetic(77, 1500), geo.UnitRect)
	srv := transport.NewServer(lsp)
	srv.MaxConns = 6 // tight: a traffic burst makes the server shed for real
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	fleet, err := load.NewFleet(load.FleetConfig{
		Addr:      addr.String(),
		Groups:    6,
		GroupSize: 3,
		KeyBits:   192,
		Seed:      4,
		Oracle: func(q []geo.Point, k int) []gnn.Result {
			return lsp.Search(q, k, gnn.Sum)
		},
		DialFunc: func(group int) func(string) (net.Conn, error) {
			switch group % 3 {
			case 0: // flaky dials and a slow, chunked link
				return faultnet.Dialer(
					faultnet.Faults{FailDial: true},
					faultnet.Faults{Seed: int64(group), Latency: time.Millisecond, MaxChunk: 256},
				)
			case 1: // first connection dies mid-answer
				return faultnet.Dialer(faultnet.Faults{Seed: int64(group), ReadResetAfter: 48})
			default:
				return nil
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	reg := obs.NewRegistry()
	d, err := load.NewDriver(load.Config{
		Rate:          45,
		Warmup:        300 * time.Millisecond,
		Measure:       2 * time.Second,
		Drain:         20 * time.Second,
		Seed:          6,
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
		t.Fatalf("%d answers disagreed with the plaintext oracle under faults+shedding", got)
	}
	if rep.Abandoned != 0 {
		t.Fatalf("%d queries abandoned", rep.Abandoned)
	}
	m := rep.Stage("measure")
	if m.OK == 0 {
		t.Fatalf("nothing succeeded: %v", m.Outcomes)
	}
	// The taxonomy must carry the whole story: everything that arrived
	// either completed with a classified outcome or was dropped at the cap.
	var classified int64
	for _, n := range m.Outcomes {
		classified += n
	}
	if classified != m.Done || m.Done+m.Dropped != m.Arrivals {
		t.Fatalf("taxonomy leak: arrivals=%d dropped=%d done=%d classified=%d",
			m.Arrivals, m.Dropped, m.Done, classified)
	}
	// Errors are tolerated (we injected them) but bounded.
	if err := (load.SLO{MaxErrorRate: 0.3, MaxAbandoned: 0}).Check(rep); err != nil {
		t.Fatalf("soak exceeded even the relaxed SLO: %v", err)
	}
	// The harness's registry view agrees with the report.
	snap := reg.Snapshot()
	if got := snap.Counter("load_sessions_total", obs.L("stage", "measure"), obs.L("outcome", "ok")); got != m.OK {
		t.Fatalf("registry ok=%d, report ok=%d", got, m.OK)
	}
}
