package experiments

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"ppgnn/internal/core"
	"ppgnn/internal/dataset"
	"ppgnn/internal/faultnet"
	"ppgnn/internal/geo"
	"ppgnn/internal/gnn"
	"ppgnn/internal/load"
	"ppgnn/internal/obs"
	"ppgnn/internal/svc"
	"ppgnn/internal/transport"
)

// ChaosReport is the payload of BENCH_chaos.json: the multi-tenant
// lifecycle soak. Two tenants run concurrent open-loop traffic against
// one svc.Service — tenant "alpha" with generous quota behind seeded
// faultnet dial-kills and slow links, tenant "beta" with a quota of one
// session and no client retries so every admission shed surfaces — while
// a reload storm rewrites and reapplies the config file (one write
// deliberately corrupt) mid-traffic. Every decrypted answer on both
// tenants is checked against a plaintext oracle built from the same
// dataset files the service loaded.
type ChaosReport struct {
	KeyBits int `json:"keybits"`
	Cores   int `json:"cores"`

	// Epochs is the final epoch sequence: 1 (initial) + applied reloads.
	Epochs          int64 `json:"epochs"`
	AppliedReloads  int64 `json:"applied_reloads"`
	RejectedReloads int64 `json:"rejected_reloads"`
	WatchdogTrips   int64 `json:"watchdog_trips"`
	// LiveEpochs after the drain — 1 unless an old epoch leaked.
	LiveEpochs int `json:"live_epochs"`
	// FinalState is the service state after the storm ("ready" or bust).
	FinalState string `json:"final_state"`
	// QuotaSheds counts admission rejections by tenant beta's quota as
	// the server recorded them.
	QuotaSheds int64 `json:"quota_sheds"`

	Tenants []ChaosTenant `json:"tenants"`

	// Traces audits the service's flight recorder after the storm:
	// alpha's retried sessions and beta's quota sheds must all have left
	// contract-clean traces. Check enforces it.
	Traces *TraceAudit `json:"traces,omitempty"`
	// IncidentDump is the recorder's contents when the gate's own checks
	// failed, mirroring the production dump-on-incident path.
	IncidentDump *obs.TraceDump `json:"incident_dump,omitempty"`
}

// ChaosTenant is one tenant's driver run.
type ChaosTenant struct {
	Tenant  string       `json:"tenant"`
	Faulted bool         `json:"faulted"` // seeded client-side faults injected
	Report  *load.Report `json:"report"`
}

// chaosReloads is the number of valid config rewrites the storm pushes
// mid-traffic (one extra corrupt write exercises the rejected path);
// Check demands that every one of them was applied.
const chaosReloads = 3

// ChaosGateOptions sizes a ChaosGate run. The zero value is the CI smoke
// configuration (~15 s of wall clock). Each tenant runs chaosGroups
// client groups through the same gateWarmup and gateDrain as the load
// gate.
type ChaosGateOptions struct {
	Rate    float64       // per-tenant offered QPS (default 25)
	Measure time.Duration // scored window (default 4s)
	Logf    func(format string, args ...any)
}

// chaosGroups is the number of client groups per chaos tenant.
const chaosGroups = 4

func (o ChaosGateOptions) withDefaults() ChaosGateOptions {
	if o.Rate <= 0 {
		o.Rate = 25
	}
	if o.Measure <= 0 {
		o.Measure = 4 * time.Second
	}
	return o
}

// chaosDialFaults is alpha's seeded client-side schedule: half the fleet
// loses its first two dials (the pool redials through them), the other
// half runs over a slow, fragmenting link. Everything is recoverable by
// design — the chaos gate demands zero lost sessions on alpha, so
// mid-answer kills (legitimately fatal under the at-most-once rule)
// belong to the load gate's faulted pass, not here.
func chaosDialFaults(seed int64) func(group int) func(addr string) (net.Conn, error) {
	return func(group int) func(addr string) (net.Conn, error) {
		gs := seed + int64(group)
		if group%2 == 0 {
			return faultnet.Dialer(
				faultnet.Faults{FailDial: true},
				faultnet.Faults{FailDial: true},
			)
		}
		return faultnet.Dialer(
			faultnet.Faults{Seed: gs, Latency: 2 * time.Millisecond, MaxChunk: 512},
			faultnet.Faults{Seed: gs + 1, Latency: 2 * time.Millisecond, MaxChunk: 512},
		)
	}
}

// chaosSlowLinks wraps every connection — faultnet.Dialer's schedule is
// per-dial, but beta's slowness must persist across redials — with a
// seeded latency-and-fragmentation fault. Pure delay, never a reset: the
// point is to stretch each session past the next Poisson arrival so
// beta's quota of one concurrent session provably engages.
func chaosSlowLinks(seed int64) func(group int) func(addr string) (net.Conn, error) {
	return func(group int) func(addr string) (net.Conn, error) {
		gs := seed + int64(group)
		return func(addr string) (net.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return faultnet.Wrap(conn, faultnet.Faults{Seed: gs, Latency: 8 * time.Millisecond, MaxChunk: 512}), nil
		}
	}
}

// ChaosGate runs the lifecycle soak and returns its report; Check
// enforces it. The service loads both tenants from dataset files written
// to a temp dir, and each tenant's oracle is built by reading the same
// file back through the same loader — byte-identical POI databases by
// construction, so a mismatch can only be a protocol or lifecycle bug.
func (c Config) ChaosGate(opts ChaosGateOptions) (*ChaosReport, error) {
	c = c.gateDefaults()
	opts = opts.withDefaults()
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	dir, err := os.MkdirTemp("", "ppgnn-chaos")
	if err != nil {
		return nil, fmt.Errorf("chaos gate: %w", err)
	}
	defer os.RemoveAll(dir)

	// Tenant datasets: small, distinct, written once and loaded by both
	// the service and the oracles.
	writeDataset := func(name string, seed int64, n int) (string, *core.LSP, error) {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			return "", nil, err
		}
		err = dataset.Save(f, dataset.Synthetic(seed, n))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return "", nil, err
		}
		items, err := dataset.LoadFile(path)
		if err != nil {
			return "", nil, err
		}
		return path, core.NewLSP(items, geo.UnitRect), nil
	}
	alphaPath, alphaOracle, err := writeDataset("alpha.txt", c.Seed+1, 600)
	if err != nil {
		return nil, fmt.Errorf("chaos gate: %w", err)
	}
	betaPath, betaOracle, err := writeDataset("beta.txt", c.Seed+2, 600)
	if err != nil {
		return nil, fmt.Errorf("chaos gate: %w", err)
	}

	cfgPath := filepath.Join(dir, "svc.json")
	// Alpha's quota flips across reloads (the storm must change something
	// real); beta's quota of one session is the shed generator and never
	// moves.
	writeConfig := func(alphaQuota int) error {
		doc := fmt.Sprintf(`{"tenants": [
			{"id": "alpha", "dataset": %q, "max_sessions": %d},
			{"id": "beta", "dataset": %q, "max_sessions": 1}]}`,
			alphaPath, alphaQuota, betaPath)
		return os.WriteFile(cfgPath, []byte(doc), 0o644)
	}
	if err := writeConfig(64); err != nil {
		return nil, fmt.Errorf("chaos gate: %w", err)
	}

	reg := obs.NewRegistry()
	svcCfg, err := svc.LoadConfigFile(cfgPath)
	if err != nil {
		return nil, fmt.Errorf("chaos gate: %w", err)
	}
	service, err := svc.New(svcCfg, svc.Options{
		ConfigPath: cfgPath,
		Obs:        reg,
		Logf:       func(format string, args ...interface{}) { logf(format, args...) },
	})
	if err != nil {
		return nil, fmt.Errorf("chaos gate: %w", err)
	}
	srv := transport.NewServer(nil)
	srv.Admitter = service
	srv.OnSessionPanic = service.OnSessionPanic
	srv.Obs = reg
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("chaos gate: %w", err)
	}
	defer srv.Close()

	// The reload storm: valid quota flips with one corrupt write in the
	// middle, spread across the traffic window.
	stormCtx, stopStorm := context.WithCancel(context.Background())
	defer stopStorm()
	var stormWG sync.WaitGroup
	stormWG.Add(1)
	go func() {
		defer stormWG.Done()
		interval := (gateWarmup + opts.Measure) / (chaosReloads + 2)
		writes := 0
		for i := 0; writes < chaosReloads; i++ {
			select {
			case <-stormCtx.Done():
				return
			case <-time.After(interval):
			}
			if i == 1 {
				// The rejected path: a corrupt file mid-storm must leave
				// the serving epoch untouched.
				os.WriteFile(cfgPath, []byte(`{"tenants": [{]`), 0o644)
				if err := service.Reload(); err == nil {
					logf("chaos: corrupt config was applied!?")
				} else {
					logf("chaos: corrupt config rejected (expected): %v", err)
				}
				continue
			}
			writes++
			if err := writeConfig(64 - writes*8); err != nil {
				logf("chaos: config write failed: %v", err)
				continue
			}
			if err := service.Reload(); err != nil {
				logf("chaos: reload %d failed: %v", writes, err)
			} else {
				logf("chaos: epoch %d applied mid-traffic", service.Epoch())
			}
		}
	}()

	// Two tenants, two concurrent drivers, isolated telemetry.
	type tenantRun struct {
		name    string
		faulted bool
		fleet   load.FleetConfig
		rep     *load.Report
		err     error
	}
	runs := []*tenantRun{
		{
			name:    "alpha",
			faulted: true,
			fleet: load.FleetConfig{
				Addr:      addr.String(),
				Tenant:    "alpha",
				Groups:    chaosGroups,
				GroupSize: 2,
				KeyBits:   c.KeyBits,
				Seed:      c.Seed + 11,
				Oracle:    func(q []geo.Point, k int) []gnn.Result { return alphaOracle.Search(q, k, gnn.Sum) },
				DialFunc:  chaosDialFaults(c.Seed),
				// Generous resend budget: dial-kills and reload windows
				// must all be ridden out — alpha tolerates zero losses.
				MaxRetries: 6,
			},
		},
		{
			name:    "beta",
			faulted: true,
			fleet: load.FleetConfig{
				Addr:      addr.String(),
				Tenant:    "beta",
				Groups:    chaosGroups,
				GroupSize: 2,
				KeyBits:   c.KeyBits,
				Seed:      c.Seed + 23,
				Oracle:    func(q []geo.Point, k int) []gnn.Result { return betaOracle.Search(q, k, gnn.Sum) },
				// Slow links (recoverable: latency only, never a reset)
				// stretch every session so the offered load overlaps its
				// quota of one — the admission gate must engage.
				DialFunc: chaosSlowLinks(c.Seed + 40),
				// No resends: every quota shed must surface in the
				// outcome taxonomy as a retryable "busy", not be papered
				// over by the pool.
				MaxRetries: -1,
			},
		},
	}
	var wg sync.WaitGroup
	for _, r := range runs {
		wg.Add(1)
		go func(r *tenantRun) {
			defer wg.Done()
			r.rep, r.err = runPass(r.fleet, load.Config{
				Rate:    opts.Rate,
				Warmup:  gateWarmup,
				Measure: opts.Measure,
				Drain:   gateDrain,
				Seed:    r.fleet.Seed,
				Logf: func(format string, args ...any) {
					logf("chaos[%s]: "+format, append([]any{r.name}, args...)...)
				},
			})
			if r.err != nil {
				r.err = fmt.Errorf("%s: %w", r.name, r.err)
			}
		}(r)
	}
	wg.Wait()
	stopStorm()
	stormWG.Wait()
	for _, r := range runs {
		if r.err != nil {
			return nil, fmt.Errorf("chaos gate: %w", r.err)
		}
	}

	// Post-storm settling: every session released, old epochs retired.
	deadline := time.Now().Add(10 * time.Second)
	for service.LiveEpochs() > 1 || service.InFlight() > 0 {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	rep := &ChaosReport{
		KeyBits:         c.KeyBits,
		Cores:           runtime.NumCPU(),
		Epochs:          service.Epoch(),
		AppliedReloads:  reg.Counter("svc_reloads_total", obs.L("result", "applied")).Value(),
		RejectedReloads: reg.Counter("svc_reloads_total", obs.L("result", "rejected")).Value(),
		WatchdogTrips:   reg.Counter("svc_watchdog_trips_total").Value(),
		LiveEpochs:      service.LiveEpochs(),
		FinalState:      service.State(),
		QuotaSheds:      quotaSheds(reg),
	}
	for _, r := range runs {
		rep.Tenants = append(rep.Tenants, ChaosTenant{Tenant: r.name, Faulted: r.faulted, Report: r.rep})
	}
	rep.Traces = auditTraces(reg.Recorder())
	if err := rep.Check(); err != nil {
		logf("chaos: gate failing (%v), dumping flight recorder", err)
		rep.IncidentDump = reg.Recorder().Dump("slo_failed")
	}
	return rep, nil
}

// quotaSheds sums the server-side quota admissions across tenant slots.
func quotaSheds(reg *obs.Registry) int64 {
	var n int64
	for _, c := range reg.Snapshot().Counters {
		if c.Name != "svc_admissions_total" {
			continue
		}
		if c.Labels["admission"] == "quota" {
			n += c.Value
		}
	}
	return n
}

// Check enforces the chaos gate:
//
//   - zero oracle mismatches on either tenant, anywhere in the run;
//   - zero abandoned in-flight sessions;
//   - the storm really stormed: all chaosReloads reload epochs applied
//     on top of the initial one, and ≥1 rejected reload;
//   - alpha (quota headroom + retries) lost nothing: every session ok;
//   - beta's sheds all classified as the retryable "busy" — nothing
//     leaked out as a protocol-fatal or unclassified error — and at
//     least one shed actually happened;
//   - the service ended ready on exactly one live epoch with a clean
//     watchdog.
func (r *ChaosReport) Check() error {
	if len(r.Tenants) == 0 {
		return fmt.Errorf("chaos gate: report has no tenant runs")
	}
	for _, t := range r.Tenants {
		if n := t.Report.Mismatches(); n > 0 {
			return fmt.Errorf("chaos gate: tenant %s: %d answer(s) disagreed with the plaintext oracle", t.Tenant, n)
		}
		if t.Report.Abandoned > 0 {
			return fmt.Errorf("chaos gate: tenant %s: %d in-flight session(s) abandoned", t.Tenant, t.Report.Abandoned)
		}
	}
	if r.AppliedReloads < chaosReloads {
		return fmt.Errorf("chaos gate: only %d applied reloads, want ≥%d", r.AppliedReloads, chaosReloads)
	}
	if r.RejectedReloads < 1 {
		return fmt.Errorf("chaos gate: the corrupt config was never rejected")
	}
	if r.WatchdogTrips != 0 {
		return fmt.Errorf("chaos gate: watchdog tripped %d time(s)", r.WatchdogTrips)
	}
	if r.LiveEpochs != 1 {
		return fmt.Errorf("chaos gate: %d epochs still live after drain (LSP leak)", r.LiveEpochs)
	}
	if r.FinalState != "ready" {
		return fmt.Errorf("chaos gate: service ended %q, want ready", r.FinalState)
	}
	for _, t := range r.Tenants {
		for _, stage := range t.Report.Stages {
			for outcome, n := range stage.Outcomes {
				if n == 0 {
					continue
				}
				switch {
				case outcome == "ok":
				case outcome == "busy" && t.Tenant == "beta":
					// Quota sheds, correctly classified retryable.
				default:
					return fmt.Errorf("chaos gate: tenant %s %s stage: %d session(s) ended %q",
						t.Tenant, stage.Stage, n, outcome)
				}
			}
		}
	}
	beta := r.tenant("beta")
	if beta == nil {
		return fmt.Errorf("chaos gate: no beta run in report")
	}
	var betaBusy int64
	for _, stage := range beta.Report.Stages {
		betaBusy += stage.Outcomes["busy"]
	}
	if betaBusy == 0 {
		return fmt.Errorf("chaos gate: beta's quota of 1 produced no sheds — the admission gate never engaged")
	}
	if r.QuotaSheds == 0 {
		return fmt.Errorf("chaos gate: server recorded no quota admissions despite %d client-side busys", betaBusy)
	}
	if err := r.Traces.Check("chaos gate"); err != nil {
		return err
	}
	return nil
}

func (r *ChaosReport) tenant(name string) *ChaosTenant {
	for i := range r.Tenants {
		if r.Tenants[i].Tenant == name {
			return &r.Tenants[i]
		}
	}
	return nil
}
