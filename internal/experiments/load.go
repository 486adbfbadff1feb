package experiments

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"time"

	"ppgnn/internal/core"
	"ppgnn/internal/faultnet"
	"ppgnn/internal/geo"
	"ppgnn/internal/gnn"
	"ppgnn/internal/load"
	"ppgnn/internal/obs"
	"ppgnn/internal/transport"
)

// LoadReport is what -gate load writes to -out: two open-loop passes
// (clean, then faulted) of the sustained-traffic conformance harness
// against an LSP over real TCP — in process, or a running ppgnn-lsp.
// Every decrypted answer in every pass is checked against the plaintext
// gnn oracle; a single mismatch fails the gate regardless of SLOs.
type LoadReport struct {
	KeyBits int `json:"keybits"`
	Cores   int `json:"cores"` // runtime.NumCPU, honest
	// Addr is the remote LSP the passes loaded; empty for an in-process
	// run.
	Addr   string     `json:"addr,omitempty"`
	Passes []LoadPass `json:"passes"`
	// Traces audits the in-process server's flight recorder after both
	// passes: every retained trace must carry only closed-enum
	// attributes and account for its measured wall time. Check enforces
	// it; a remote run has no audit (scripts/metrics-smoke.sh audits a
	// daemon's /traces).
	Traces *TraceAudit `json:"traces,omitempty"`
	// IncidentDump is the flight recorder's contents at the moment an
	// SLO check failed — the traces around the failure, preserved in the
	// report the way a production watchdog dump would be.
	IncidentDump *obs.TraceDump `json:"incident_dump,omitempty"`
}

// LoadPass is one driver run plus the verdict of its SLO.
type LoadPass struct {
	Name    string `json:"name"` // clean | faulted
	Faulted bool   `json:"faulted"`
	// SLO is the human rendering of the objective this pass was held to.
	SLO string `json:"slo"`
	// SLOViolation is empty on a passing run; otherwise every violated
	// objective, joined. Check refuses any report carrying one.
	SLOViolation string       `json:"slo_violation,omitempty"`
	Report       *load.Report `json:"report"`
}

// LoadGateOptions sizes a LoadGate run. The zero value is the CI smoke
// configuration: ~20 seconds of wall clock at a modest rate. Every pass
// runs loadGroups client groups of loadGroupSize users through a
// gateWarmup, the measure window and at most gateDrain of drain.
type LoadGateOptions struct {
	// Addr, when set, loads the ppgnn-lsp at this address instead of an
	// in-process LSP; the oracle is still built over Config.Items.
	Addr    string
	Rate    float64       // offered QPS (default 40)
	Measure time.Duration // scored window (default 6s)
	// SLO overrides the clean pass's objective (the faulted pass derives
	// a tolerant variant of it).
	SLO  *load.SLO
	Logf func(format string, args ...any)
}

// The gates' fixed pass shape: warm-up before the measure window, the
// longest drain a pass waits for its in-flight tail, and the load gate's
// fleet of six groups of three.
const (
	gateWarmup    = time.Second
	gateDrain     = 30 * time.Second
	loadGroups    = 6
	loadGroupSize = 3
)

func (o LoadGateOptions) withDefaults() LoadGateOptions {
	if o.Rate <= 0 {
		o.Rate = 40
	}
	if o.Measure <= 0 {
		o.Measure = 6 * time.Second
	}
	return o
}

// gateFaults is the seeded per-group fault schedule of the faulted pass:
// a quarter of the fleet loses its first dials, a quarter has its first
// connection killed mid-answer (a non-retryable session loss, by the
// transport's at-most-once rule), a quarter runs over a slow link, and
// the rest stay clean. Deterministic in (seed, group).
func gateFaults(seed int64) func(group int) func(addr string) (net.Conn, error) {
	return func(group int) func(addr string) (net.Conn, error) {
		gs := seed + int64(group)
		switch group % 4 {
		case 0:
			return faultnet.Dialer(
				faultnet.Faults{FailDial: true},
				faultnet.Faults{FailDial: true},
			)
		case 1:
			return faultnet.Dialer(faultnet.Faults{Seed: gs, ReadResetAfter: 64})
		case 2:
			return faultnet.Dialer(
				faultnet.Faults{Seed: gs, Latency: 2 * time.Millisecond, MaxChunk: 512},
				faultnet.Faults{Seed: gs + 1, Latency: 2 * time.Millisecond, MaxChunk: 512},
			)
		default:
			return nil
		}
	}
}

// LoadGate is the CI teeth of the open-loop load harness (DESIGN.md
// §12): it builds a fleet of client groups, offers open-loop traffic,
// and holds the run to an SLO while conformance-checking every answer
// against the plaintext engine over c.Items. It then repeats the run
// under seeded faultnet schedules — dial drops, added latency and
// mid-answer connection kills on the client links — where sessions may
// be lost to the taxonomy but never answered wrongly. Without
// opts.Addr the target is an in-process LSP on a real TCP listener,
// whose flight recorder is audited afterwards; with it the target is a
// running ppgnn-lsp, which must have loaded the same points as c.Items.
// Call Check on the returned report to enforce it.
func (c Config) LoadGate(opts LoadGateOptions) (*LoadReport, error) {
	c = c.gateDefaults()
	opts = opts.withDefaults()

	lsp := core.NewLSP(c.Items, geo.UnitRect)
	oracle := func(q []geo.Point, k int) []gnn.Result { return lsp.Search(q, k, gnn.Sum) }
	rep := &LoadReport{KeyBits: c.KeyBits, Cores: runtime.NumCPU(), Addr: opts.Addr}
	addr := opts.Addr
	// reg is the in-process server's isolated registry, so the trace
	// audit below sees exactly this run's traces; a remote daemon's
	// recorder is out of reach and nil here.
	var reg *obs.Registry
	if addr == "" {
		srv := transport.NewServer(lsp)
		reg = obs.NewRegistry()
		srv.Obs = reg
		a, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("load gate: %w", err)
		}
		defer srv.Close()
		addr = a.String()
	}

	cleanSLO := load.SLO{
		P95:               2 * time.Second,
		P99:               4 * time.Second,
		MaxErrorRate:      0,
		MinThroughputFrac: 0.9,
	}
	if opts.SLO != nil {
		cleanSLO = *opts.SLO
	}
	// Injected kills legitimately cost sessions and retries cost time;
	// the faulted pass relaxes rates and latency but still forbids
	// abandonment — and mismatches stay fatal everywhere.
	faultedSLO := cleanSLO
	faultedSLO.MaxErrorRate = maxf(cleanSLO.MaxErrorRate, 0.25)
	faultedSLO.MinThroughputFrac = 0.5
	faultedSLO.P95, faultedSLO.P99 = 2*cleanSLO.P95, 2*cleanSLO.P99

	passes := []struct {
		name    string
		faulted bool
		slo     load.SLO
	}{{"clean", false, cleanSLO}, {"faulted", true, faultedSLO}}

	for i, p := range passes {
		fc := load.FleetConfig{
			Addr:      addr,
			Groups:    loadGroups,
			GroupSize: loadGroupSize,
			KeyBits:   c.KeyBits,
			Seed:      c.Seed + int64(i)*101,
			Oracle:    oracle,
		}
		if p.faulted {
			fc.DialFunc = gateFaults(c.Seed)
		}
		run, err := runPass(fc, load.Config{
			Rate:    opts.Rate,
			Warmup:  gateWarmup,
			Measure: opts.Measure,
			Drain:   gateDrain,
			Seed:    c.Seed + int64(i),
			Logf:    opts.Logf,
		})
		if err != nil {
			return nil, fmt.Errorf("load gate: %s pass: %w", p.name, err)
		}
		pass := LoadPass{Name: p.name, Faulted: p.faulted, SLO: p.slo.String(), Report: run}
		if err := p.slo.Check(run); err != nil {
			pass.SLOViolation = err.Error()
			// A failed SLO dumps the flight recorder: the traces behind
			// the violated percentiles ride along in the report.
			if reg != nil {
				rep.IncidentDump = reg.Recorder().Dump("slo_failed")
			}
		}
		rep.Passes = append(rep.Passes, pass)
	}
	if reg != nil {
		rep.Traces = auditTraces(reg.Recorder())
	}
	return rep, nil
}

// runPass is the one open-loop pass every gate runs: build the fleet,
// drive it through warm-up, measure and drain with an isolated
// registry, and close it.
func runPass(fc load.FleetConfig, dc load.Config) (*load.Report, error) {
	fleet, err := load.NewFleet(fc)
	if err != nil {
		return nil, err
	}
	defer fleet.Close()
	dc.OracleChecked = fc.Oracle != nil
	dc.Obs = obs.NewRegistry()
	d, err := load.NewDriver(dc, fleet)
	if err != nil {
		return nil, err
	}
	return d.Run(context.Background())
}

// Check enforces the gate: any recorded SLO violation or oracle mismatch
// fails outright, and so, on an in-process run, does a trace that breaks
// the privacy contract or fails to account for its wall time.
func (r *LoadReport) Check() error {
	if len(r.Passes) == 0 {
		return fmt.Errorf("load gate: report has no passes")
	}
	for _, p := range r.Passes {
		if n := p.Report.Mismatches(); n > 0 {
			return fmt.Errorf("load gate: %s pass: %d answer(s) disagreed with the plaintext oracle", p.Name, n)
		}
		if p.SLOViolation != "" {
			return fmt.Errorf("load gate: %s pass failed its SLO: %s", p.Name, p.SLOViolation)
		}
	}
	if r.Addr != "" {
		return nil
	}
	return r.Traces.Check("load gate")
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
