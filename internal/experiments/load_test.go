package experiments

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"ppgnn/internal/core"
	"ppgnn/internal/dataset"
	"ppgnn/internal/geo"
	"ppgnn/internal/load"
	"ppgnn/internal/obs"
	"ppgnn/internal/transport"
)

func quickLoadOpts() LoadGateOptions {
	return LoadGateOptions{
		Rate:    30,
		Measure: time.Second,
		SLO: &load.SLO{
			P95:               5 * time.Second,
			P99:               10 * time.Second,
			MinThroughputFrac: 0.5,
		},
	}
}

// A short clean+faulted gate run end to end: both passes complete, zero
// oracle mismatches, the faulted pass loses sessions only to the
// taxonomy, and the report survives the JSON round trip CI relies on.
func TestLoadGateEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("sustained-traffic gate run")
	}
	cfg := Config{Items: dataset.Synthetic(7, 1200), KeyBits: 192, Seed: 9}
	rep, err := cfg.LoadGate(quickLoadOpts())
	if err != nil {
		t.Fatal(err)
	}
	if rep.KeyBits != gateKeyBits {
		t.Fatalf("gate ran at %d-bit keys, want gateKeyBits %d whatever Config.KeyBits says", rep.KeyBits, gateKeyBits)
	}
	if len(rep.Passes) != 2 || rep.Passes[0].Name != "clean" || rep.Passes[1].Name != "faulted" {
		t.Fatalf("want clean+faulted passes, got %+v", rep.Passes)
	}
	if rep.Cores < 1 {
		t.Fatalf("dishonest cores %d", rep.Cores)
	}
	for _, p := range rep.Passes {
		if n := p.Report.Mismatches(); n != 0 {
			t.Fatalf("%s pass: %d oracle mismatches", p.Name, n)
		}
		m := p.Report.Stage("measure")
		if m == nil || m.OK == 0 {
			t.Fatalf("%s pass: empty measure stage", p.Name)
		}
		if p.SLOViolation != "" {
			t.Fatalf("%s pass violated its SLO: %s", p.Name, p.SLOViolation)
		}
	}
	if err := rep.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}

	// JSON round trip: the written report must carry the same verdict.
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back LoadReport
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Check(); err != nil {
		t.Fatalf("round-tripped report: %v", err)
	}
}

// The remote mode loads a transport.Server it did not start, with the
// oracle built over the Items it is given: the same points pass, points
// from another seed fail on oracle mismatches.
func TestLoadGateRemote(t *testing.T) {
	if testing.Short() {
		t.Skip("sustained-traffic gate run")
	}
	items := dataset.Synthetic(7, 1200)
	srv := transport.NewServer(core.NewLSP(items, geo.UnitRect))
	srv.Obs = obs.NewRegistry()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	opts := quickLoadOpts()
	opts.Addr = addr.String()

	cfg := Config{Items: items, Seed: 9}
	rep, err := cfg.LoadGate(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Addr != opts.Addr || rep.Traces != nil {
		t.Fatalf("remote report: addr %q, traces %+v; want %q and no audit", rep.Addr, rep.Traces, opts.Addr)
	}
	if err := rep.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	for _, p := range rep.Passes {
		if n := p.Report.Mismatches(); n != 0 {
			t.Fatalf("%s pass: %d oracle mismatches", p.Name, n)
		}
	}

	cfg.Items = dataset.Synthetic(8, 1200)
	rep, err = cfg.LoadGate(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err == nil || !strings.Contains(err.Error(), "oracle") {
		t.Fatalf("Check over another seed's points = %v, want an oracle mismatch", err)
	}
	if rep.Passes[0].Report.Mismatches() == 0 {
		t.Fatal("clean pass over another seed's points counted no mismatches")
	}
}

func TestLoadReportCheckRejects(t *testing.T) {
	mk := func(mut func(*LoadReport)) *LoadReport {
		r := &LoadReport{Cores: 1, Passes: []LoadPass{{
			Name: "clean",
			Report: &load.Report{Stages: []load.StageReport{{
				Stage: "measure", Arrivals: 10, Done: 10, OK: 10,
				LatencyP95: 0.1, OfferedQPS: 10, AchievedQPS: 10,
			}}},
		}}, Traces: &TraceAudit{Traces: 1, Remote: 1}}
		mut(r)
		return r
	}

	if err := mk(func(r *LoadReport) {}).Check(); err != nil {
		t.Fatalf("healthy report rejected: %v", err)
	}
	remote := mk(func(r *LoadReport) { r.Addr, r.Traces = "127.0.0.1:9042", nil })
	if err := remote.Check(); err != nil {
		t.Fatalf("healthy remote report without a trace audit rejected: %v", err)
	}
	cases := []struct {
		name string
		rep  *LoadReport
		want string
	}{
		{"mismatch", mk(func(r *LoadReport) { r.Passes[0].Report.Stages[0].Mismatches = 1 }), "oracle"},
		{"slo", mk(func(r *LoadReport) { r.Passes[0].SLOViolation = "p95 too slow" }), "SLO"},
		{"empty", &LoadReport{}, "no passes"},
		{"no trace audit", mk(func(r *LoadReport) { r.Traces = nil }), "trace audit"},
		{"trace violation", mk(func(r *LoadReport) {
			r.Traces.Violations = []string{`trace 0abc: attribute "city"="x" outside the closed catalog`}
		}), "violation"},
	}
	for _, c := range cases {
		err := c.rep.Check()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Check = %v, want mention of %q", c.name, err, c.want)
		}
	}
}
