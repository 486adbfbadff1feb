package experiments

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"ppgnn/internal/load"
)

// A short chaos gate run end to end: reload storm, two tenants, fault
// injection, oracle checking — and the report survives the JSON round
// trip CI relies on.
func TestChaosGateEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-tenant lifecycle soak")
	}
	cfg := Config{Seed: 5}
	rep, err := cfg.ChaosGate(ChaosGateOptions{
		Rate:    25,
		Measure: 2 * time.Second,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatalf("chaos gate: %v", err)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back ChaosReport
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Check(); err != nil {
		t.Fatalf("after JSON round trip: %v", err)
	}
}

func TestChaosReportCheckRejects(t *testing.T) {
	mk := func(mut func(*ChaosReport)) *ChaosReport {
		r := &ChaosReport{
			AppliedReloads:  3,
			RejectedReloads: 1,
			Epochs:          4,
			LiveEpochs:      1,
			FinalState:      "ready",
			QuotaSheds:      2,
			Tenants: []ChaosTenant{
				{Tenant: "alpha", Faulted: true, Report: &load.Report{Stages: []load.StageReport{{
					Stage: "measure", Arrivals: 10, Done: 10, OK: 10,
					Outcomes: map[string]int64{"ok": 10},
				}}}},
				{Tenant: "beta", Report: &load.Report{Stages: []load.StageReport{{
					Stage: "measure", Arrivals: 10, Done: 10, OK: 8,
					Outcomes: map[string]int64{"ok": 8, "busy": 2},
				}}}},
			},
			Traces: &TraceAudit{Traces: 3, Remote: 3},
		}
		mut(r)
		return r
	}

	if err := mk(func(r *ChaosReport) {}).Check(); err != nil {
		t.Fatalf("healthy report rejected: %v", err)
	}
	cases := []struct {
		name string
		rep  *ChaosReport
		want string
	}{
		{"empty", &ChaosReport{}, "no tenant"},
		{"mismatch", mk(func(r *ChaosReport) { r.Tenants[1].Report.Stages[0].Mismatches = 1 }), "oracle"},
		{"abandoned", mk(func(r *ChaosReport) { r.Tenants[0].Report.Abandoned = 2 }), "abandoned"},
		{"too few reloads", mk(func(r *ChaosReport) { r.AppliedReloads = 2 }), "applied reloads"},
		{"no rejection", mk(func(r *ChaosReport) { r.RejectedReloads = 0 }), "rejected"},
		{"watchdog", mk(func(r *ChaosReport) { r.WatchdogTrips = 1 }), "watchdog"},
		{"epoch leak", mk(func(r *ChaosReport) { r.LiveEpochs = 3 }), "live"},
		{"not ready", mk(func(r *ChaosReport) { r.FinalState = "draining" }), "ready"},
		{"alpha shed", mk(func(r *ChaosReport) {
			r.Tenants[0].Report.Stages[0].Outcomes["busy"] = 1
		}), `"busy"`},
		{"beta timeout", mk(func(r *ChaosReport) {
			r.Tenants[1].Report.Stages[0].Outcomes["timeout"] = 1
		}), `"timeout"`},
		{"no beta sheds", mk(func(r *ChaosReport) {
			r.Tenants[1].Report.Stages[0].Outcomes = map[string]int64{"ok": 10}
		}), "no sheds"},
		{"no server sheds", mk(func(r *ChaosReport) { r.QuotaSheds = 0 }), "no quota admissions"},
		{"no trace audit", mk(func(r *ChaosReport) { r.Traces = nil }), "trace audit"},
		{"trace violation", mk(func(r *ChaosReport) {
			r.Traces.Violations = []string{`trace 0abc: phase "decrypt_user_3" outside the closed enum`}
		}), "violation"},
	}
	for _, c := range cases {
		err := c.rep.Check()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Check = %v, want mention of %q", c.name, err, c.want)
		}
	}
}
