// Command ppgnn-experiments regenerates the tables and figures of the
// paper's evaluation (Section 8). Each figure is printed as text tables
// with the same x-axes and series as the paper.
//
// Usage:
//
//	ppgnn-experiments [flags]
//
//	-exp all|fig5|fig6|fig7|fig8|table2|table3|table4
//	     which experiment to run (default all)
//	-queries N   queries averaged per data point (default 3; paper: 500)
//	-keybits N   Paillier modulus size (default 1024, as in the paper;
//	             not with -gate, whose gates always run at 256 bits)
//	-quick       endpoint-only sweeps with small defaults (smoke test)
//	-dataset F   load a real point file instead of the Sequoia substitute
//	-seed N      base RNG seed
//	-gate G      instead of the paper experiments, run one conformance
//	             gate, write its JSON report to -out and exit nonzero if
//	             the report fails its check:
//	               load   the open-loop sustained-traffic gate: an
//	                      in-process LSP on real TCP, a fleet of client
//	                      groups at a fixed arrival rate, every decrypted
//	                      answer checked against the plaintext engine —
//	                      once clean and once under seeded faultnet
//	                      faults — held to an SLO and a trace audit;
//	                      with -addr, the same passes against a running
//	                      ppgnn-lsp that loaded -dataset (no trace audit)
//	               chaos  the multi-tenant lifecycle soak: two tenants
//	                      under concurrent open-loop traffic (one behind
//	                      seeded dial-kill and slow-link faults, one with
//	                      a quota of a single session so admission
//	                      provably sheds) while a reload storm rewrites
//	                      the service config, one write deliberately
//	                      corrupt; fails on any mismatch, lost session,
//	                      epoch leak or shed not classified retryable
//	-addr A      for -gate load: load the ppgnn-lsp at A instead of an
//	             in-process LSP
//	-out F       report file for -gate (default BENCH_<gate>.json)
//	-rate R      offered arrivals/second for -gate load|chaos, per tenant
//	             for chaos (default 0: 40 for load, 25 for chaos)
//	-measure D   scored window for -gate load|chaos (default 0: 6s for
//	             load, 4s for chaos)
//
// Absolute timings differ from the paper's C++/GMP testbed; the shapes
// (who wins, growth rates, crossovers) are the reproduction target. See
// EXPERIMENTS.md. The gates here check conformance (oracle, SLO, trace
// audit), not speed: performance evidence is `bash bench/run.sh`
// (bench/README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"ppgnn/internal/core"
	"ppgnn/internal/dataset"
	"ppgnn/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all|fig5|fig6|fig7|fig8|table2|table3|table4")
	queries := flag.Int("queries", experiments.DefaultQueries, "queries averaged per data point")
	keybits := flag.Int("keybits", core.DefaultKeyBits, "Paillier modulus size in bits (the gates always run at 256)")
	quick := flag.Bool("quick", false, "endpoint-only sweeps (smoke test)")
	datasetPath := flag.String("dataset", "", "optional point file (e.g. the real Sequoia data)")
	seed := flag.Int64("seed", experiments.DefaultSeed, "base RNG seed")
	gate := flag.String("gate", "", "run a conformance gate instead: load|chaos")
	addr := flag.String("addr", "", "for -gate load: a running ppgnn-lsp to load instead of an in-process LSP")
	out := flag.String("out", "", "report file for -gate (default BENCH_<gate>.json)")
	rate := flag.Float64("rate", 0, "offered arrivals/second for -gate load|chaos (0 = the gate's default)")
	measure := flag.Duration("measure", 0, "scored window for -gate load|chaos (0 = the gate's default)")
	flag.Parse()

	cfg := experiments.Config{
		Queries: *queries,
		KeyBits: *keybits,
		Seed:    *seed,
		Quick:   *quick,
	}
	if *datasetPath != "" {
		items, err := dataset.LoadFile(*datasetPath)
		if err != nil {
			fatal(err)
		}
		cfg.Items = items
	}

	if *addr != "" && *gate != "load" {
		fatal(fmt.Errorf("-addr applies to -gate load only"))
	}
	if *gate != "" {
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "keybits" {
				fatal(fmt.Errorf("-keybits applies to the paper experiments only; the gates run at a fixed key size"))
			}
		})
		path := *out
		if path == "" {
			path = "BENCH_" + *gate + ".json"
		}
		runGate(cfg, *gate, *addr, *rate, *measure, path)
		return
	}

	type job struct {
		name string
		run  func() error
	}
	printTables := func(fn func() ([]*experiments.Table, error)) func() error {
		return func() error {
			tables, err := fn()
			if err != nil {
				return err
			}
			for _, t := range tables {
				fmt.Println(t.Format())
			}
			return nil
		}
	}
	jobs := []job{
		{"table3", func() error { fmt.Println(cfg.Table3()); return nil }},
		{"table4", func() error { fmt.Println(experiments.Table4()); return nil }},
		{"table2", func() error {
			out, err := cfg.Table2()
			if err != nil {
				return err
			}
			fmt.Println(out)
			return nil
		}},
		{"fig5", printTables(cfg.Fig5)},
		{"fig6", printTables(cfg.Fig6)},
		{"fig7", printTables(cfg.Fig7)},
		{"fig8", printTables(cfg.Fig8)},
	}

	ran := false
	for _, j := range jobs {
		if *exp != "all" && *exp != j.name {
			continue
		}
		ran = true
		start := time.Now()
		fmt.Printf("=== %s ===\n", j.name)
		if err := j.run(); err != nil {
			fatal(fmt.Errorf("%s: %w", j.name, err))
		}
		fmt.Printf("[%s completed in %v]\n\n", j.name, time.Since(start).Round(time.Millisecond))
	}
	if !ran {
		fatal(fmt.Errorf("unknown experiment %q", *exp))
	}
	if kg, err := cfg.KeygenCost(); err == nil {
		fmt.Printf("(one-time %d-bit key generation: %v — excluded from per-query user cost)\n",
			cfg.Defaults().KeyBits, kg.Round(time.Millisecond))
	}
}

// runGate is the one path every gate takes: run it, print its summary,
// write the report — so a failing run still leaves its evidence behind —
// and let the report's Check decide between a nonzero exit and PASS.
func runGate(cfg experiments.Config, gate, addr string, rate float64, measure time.Duration, path string) {
	start := time.Now()
	var report interface{ Check() error }
	switch gate {
	case "load":
		r, err := cfg.LoadGate(experiments.LoadGateOptions{Addr: addr, Rate: rate, Measure: measure, Logf: logf})
		if err != nil {
			fatal(err)
		}
		target := "in-process LSP"
		if r.Addr != "" {
			target = r.Addr
		}
		fmt.Printf("load gate: %s keybits=%d cores=%d\n", target, r.KeyBits, r.Cores)
		for _, p := range r.Passes {
			m := p.Report.Stage("measure")
			fmt.Printf("  %-7s %s\n          mismatches=%d abandoned=%d slo{%s}\n",
				p.Name, m.Summary(), p.Report.Mismatches(), p.Report.Abandoned, p.SLO)
			if p.SLOViolation != "" {
				fmt.Printf("          VIOLATION: %s\n", p.SLOViolation)
			}
		}
		report = r
	case "chaos":
		r, err := cfg.ChaosGate(experiments.ChaosGateOptions{Rate: rate, Measure: measure, Logf: logf})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("chaos gate: keybits=%d cores=%d\n", r.KeyBits, r.Cores)
		fmt.Printf("  epochs=%d applied=%d rejected=%d watchdog=%d live=%d state=%s quota-sheds=%d\n",
			r.Epochs, r.AppliedReloads, r.RejectedReloads,
			r.WatchdogTrips, r.LiveEpochs, r.FinalState, r.QuotaSheds)
		for _, t := range r.Tenants {
			if m := t.Report.Stage("measure"); m != nil {
				fmt.Printf("  %-6s faulted=%-5v %s\n         mismatches=%d abandoned=%d busy=%d\n",
					t.Tenant, t.Faulted, m.Summary(), t.Report.Mismatches(),
					t.Report.Abandoned, m.Outcomes["busy"])
			}
		}
		report = r
	default:
		fatal(fmt.Errorf("unknown gate %q (want load|chaos)", gate))
	}

	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fatal(err)
	}
	if err := report.Check(); err != nil {
		fatal(err)
	}
	fmt.Printf("  %s gate: PASS in %v, report in %s\n", gate, time.Since(start).Round(time.Millisecond), path)
}

func logf(format string, args ...any) { fmt.Printf(format+"\n", args...) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ppgnn-experiments:", err)
	os.Exit(1)
}
