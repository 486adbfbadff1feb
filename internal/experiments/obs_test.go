package experiments

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"ppgnn/internal/obs"
)

// TestObsSoakServesSnapshot is the acceptance scenario of the telemetry
// work end to end: the seeded n=5 t=3 faultnet soak runs over real TCP,
// and afterwards the -metrics-addr endpoint serves a JSON snapshot with
// per-phase histograms, transport retry/shed counters, and the paillier
// Precomputer hit rate — all of it privacy-safe by construction.
func TestObsSoakServesSnapshot(t *testing.T) {
	cfg := Config{Queries: 2, KeyBits: 192, Seed: 7}
	report, err := cfg.ObsSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if report.OK != 2 {
		t.Fatalf("soak: %d/%d ok (failed %d)", report.OK, report.Queries, report.Failed)
	}
	if err := report.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if report.PoolHitRate <= 0 || report.PoolHitRate > 1 {
		t.Errorf("pool hit rate %v, want in (0,1]", report.PoolHitRate)
	}
	if report.Retries < 1 {
		t.Errorf("transport retries %d, want ≥ 1 (first LSP dial is scheduled to fail)", report.Retries)
	}
	if report.Dropouts < 1 {
		t.Errorf("dropouts %d, want ≥ 1 (member 1's first session is unreachable)", report.Dropouts)
	}

	// Per-phase histograms must cover the whole Algorithm 1 lifecycle.
	phases := map[string]bool{}
	for _, h := range report.Phases {
		if h.Count > 0 {
			phases[h.Labels["phase"]] = true
		}
		if h.Count > 0 && (h.P95 < h.P50 || h.P50 < 0) {
			t.Errorf("phase %v: implausible quantiles p50=%v p95=%v", h.Labels, h.P50, h.P95)
		}
	}
	for _, want := range []string{"session", "collect", "partition", "query", "decrypt"} {
		if !phases[want] {
			t.Errorf("phase %q missing from report (have %v)", want, phases)
		}
	}

	// The soak's registry is the process default, i.e. exactly what a
	// -metrics-addr endpoint serves. Curl it.
	addr, stop, err := obs.Serve("127.0.0.1:0", obs.Default())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Histogram("ppgnn_phase_seconds", obs.L("phase", "session"), obs.L("outcome", "ok")) == nil {
		t.Error("endpoint snapshot lacks the session phase histogram")
	}
	var sawRetries, sawShed bool
	for _, c := range snap.Counters {
		switch c.Name {
		case "transport_retries_total":
			sawRetries = true
		case "transport_server_shed_total":
			sawShed = true
		}
	}
	if !sawRetries || !sawShed {
		t.Errorf("endpoint snapshot lacks transport counters: retries=%v shed=%v", sawRetries, sawShed)
	}
	if snap.Counter("paillier_precompute_encrypt_total", obs.L("source", "pool")) < 1 {
		t.Error("endpoint snapshot lacks the Precomputer pool counter")
	}
}

func TestObsReportCheckRejects(t *testing.T) {
	healthy := ObsReport{OK: 1, Phases: []obs.HistSnap{{Name: "ppgnn_phase_seconds"}}}
	if err := healthy.Check(); err != nil {
		t.Fatalf("healthy report rejected: %v", err)
	}
	noOK := healthy
	noOK.OK, noOK.Failed = 0, 4
	noPhases := healthy
	noPhases.Phases = nil
	for name, r := range map[string]ObsReport{"no ok": noOK, "no phases": noPhases} {
		if err := r.Check(); err == nil {
			t.Errorf("%s: Check accepted %+v", name, r)
		}
	}
}
