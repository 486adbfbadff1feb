// Command ppgnn-experiments regenerates the tables and figures of the
// paper's evaluation (Section 8). Each figure is printed as text tables
// with the same x-axes and series as the paper.
//
// Usage:
//
//	ppgnn-experiments [flags]
//
//	-exp all|fig5|fig6|fig7|fig8|table2|table3|table4|mobile
//	     which experiment to run (default all)
//	-queries N   queries averaged per data point (default 3; paper: 500)
//	-keybits N   Paillier modulus size (default 1024, as in the paper)
//	-quick       endpoint-only sweeps with small defaults (smoke test)
//	-dataset F   load a real point file instead of the Sequoia substitute
//	-seed N      base RNG seed
//	-snapshot    instead of the paper experiments, run the seeded n=5 t=3
//	             faultnet soak and write its telemetry (per-phase p50/p95,
//	             retry counters, Precomputer hit rate) to -snapshot-out
//	-snapshot-out F  output file for -snapshot (default BENCH_obs.json)
//	-latency D   faultnet latency injected on every soak link (default 5ms)
//	-load-gate   run the open-loop sustained-traffic conformance gate: an
//	             in-process LSP on real TCP, a fleet of client groups at a
//	             fixed arrival rate, every decrypted answer checked against
//	             the plaintext engine — once clean and once under seeded
//	             faultnet faults — and write the report to -load-out; exits
//	             nonzero on any SLO violation, oracle mismatch, or trace
//	             that breaks the privacy or wall-time contract
//	-load-out F      output file for -load-gate (default BENCH_load.json)
//	-load-rate R     offered arrivals/second (default 40)
//	-load-warmup D   unscored warm-up window (default 1s)
//	-load-measure D  scored window per pass (default 6s)
//	-load-faulted    include the faulted pass (default true)
//	-chaos-gate  run the multi-tenant lifecycle soak: two tenants under
//	             concurrent open-loop traffic (one behind seeded dial-kill
//	             and slow-link faults, one with a quota of a single session
//	             so the admission gate provably sheds) while a reload storm
//	             rewrites the service config mid-traffic — one write
//	             deliberately corrupt. Every answer is oracle-checked;
//	             exits nonzero on any mismatch, lost session, epoch leak,
//	             or an admission shed not classified retryable
//	-chaos-out F     output file for -chaos-gate (default BENCH_chaos.json)
//	-chaos-rate R    offered arrivals/second per tenant (default 25)
//	-chaos-measure D scored window (default 4s)
//	-chaos-reloads N valid reloads pushed mid-traffic (default 3)
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

	"ppgnn/internal/dataset"
	"ppgnn/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all|fig5|fig6|fig7|fig8|table2|table3|table4|mobile")
	queries := flag.Int("queries", 3, "queries averaged per data point")
	keybits := flag.Int("keybits", 1024, "Paillier modulus size in bits")
	quick := flag.Bool("quick", false, "endpoint-only sweeps (smoke test)")
	datasetPath := flag.String("dataset", "", "optional point file (e.g. the real Sequoia data)")
	seed := flag.Int64("seed", 42, "base RNG seed")
	snapshot := flag.Bool("snapshot", false, "run the n=5 t=3 faultnet soak and write its telemetry JSON")
	snapshotOut := flag.String("snapshot-out", "BENCH_obs.json", "output file for -snapshot")
	latency := flag.Duration("latency", 5*time.Millisecond, "faultnet latency per soak link (-snapshot)")
	loadGate := flag.Bool("load-gate", false, "run the open-loop sustained-traffic conformance gate and write the report")
	loadOut := flag.String("load-out", "BENCH_load.json", "output file for -load-gate")
	loadRate := flag.Float64("load-rate", 40, "offered arrivals/second for -load-gate")
	loadWarmup := flag.Duration("load-warmup", time.Second, "unscored warm-up window for -load-gate")
	loadMeasure := flag.Duration("load-measure", 6*time.Second, "scored window per -load-gate pass")
	loadFaulted := flag.Bool("load-faulted", true, "include the seeded-fault pass in -load-gate")
	chaosGate := flag.Bool("chaos-gate", false, "run the multi-tenant lifecycle soak (reload storm + admission sheds + faults) and write the report")
	chaosOut := flag.String("chaos-out", "BENCH_chaos.json", "output file for -chaos-gate")
	chaosRate := flag.Float64("chaos-rate", 25, "offered arrivals/second per tenant for -chaos-gate")
	chaosMeasure := flag.Duration("chaos-measure", 4*time.Second, "scored window for -chaos-gate")
	chaosReloads := flag.Int("chaos-reloads", 3, "valid config reloads pushed mid-traffic by -chaos-gate")
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

	if *loadGate {
		start := time.Now()
		report, err := gateConfig(cfg).LoadGate(experiments.LoadGateOptions{
			Rate:    *loadRate,
			Warmup:  *loadWarmup,
			Measure: *loadMeasure,
			Faulted: *loadFaulted,
			Logf:    logf,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("load gate: keybits=%d cores=%d rate=%.3g/s measure=%v (%v total)\n",
			report.KeyBits, report.Cores, *loadRate, *loadMeasure, time.Since(start).Round(time.Millisecond))
		for _, p := range report.Passes {
			m := p.Report.Stage("measure")
			fmt.Printf("  %-7s %s\n          mismatches=%d abandoned=%d slo{%s}\n",
				p.Name, m.Summary(), p.Report.Mismatches(), p.Report.Abandoned, p.SLO)
			if p.SLOViolation != "" {
				fmt.Printf("          VIOLATION: %s\n", p.SLOViolation)
			}
		}
		writeThenCheck(*loadOut, report, "every answer matched the plaintext oracle")
		return
	}

	if *chaosGate {
		start := time.Now()
		report, err := gateConfig(cfg).ChaosGate(experiments.ChaosGateOptions{
			Rate:    *chaosRate,
			Measure: *chaosMeasure,
			Reloads: *chaosReloads,
			Logf:    logf,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("chaos gate: keybits=%d cores=%d rate=%.3g/s/tenant measure=%v (%v total)\n",
			report.KeyBits, report.Cores, *chaosRate, *chaosMeasure, time.Since(start).Round(time.Millisecond))
		fmt.Printf("  epochs=%d applied=%d rejected=%d watchdog=%d live=%d state=%s quota-sheds=%d\n",
			report.Epochs, report.AppliedReloads, report.RejectedReloads,
			report.WatchdogTrips, report.LiveEpochs, report.FinalState, report.QuotaSheds)
		for _, t := range report.Tenants {
			if m := t.Report.Stage("measure"); m != nil {
				fmt.Printf("  %-6s faulted=%-5v %s\n         mismatches=%d abandoned=%d busy=%d\n",
					t.Tenant, t.Faulted, m.Summary(), t.Report.Mismatches(),
					t.Report.Abandoned, m.Outcomes["busy"])
			}
		}
		writeThenCheck(*chaosOut, report, "oracle clean across every reload epoch")
		return
	}

	if *snapshot {
		start := time.Now()
		report, err := cfg.ObsSnapshot(*latency)
		if err != nil {
			fatal(err)
		}
		writeReport(*snapshotOut, report)
		fmt.Printf("obs soak: %d/%d queries ok in %v (latency %v), report in %s\n",
			report.OK, report.Queries, time.Since(start).Round(time.Millisecond), *latency, *snapshotOut)
		for _, h := range report.Phases {
			fmt.Printf("  phase %-9s outcome %-8s n=%-4d p50=%8.4fs p95=%8.4fs\n",
				h.Labels["phase"], h.Labels["outcome"], h.Count, h.P50, h.P95)
		}
		fmt.Printf("  precompute pool hit rate %.2f, transport retries %d, dropouts %d\n",
			report.PoolHitRate, report.Retries, report.Dropouts)
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
		{"mobile", func() error {
			out, err := cfg.Mobile()
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

// gateConfig is the configuration the conformance gates run at: they
// exercise the service and lifecycle layers, not the paper's cost model,
// so unless -keybits was set explicitly they use 256-bit keys and a CI
// pass stays ~20s.
func gateConfig(cfg experiments.Config) experiments.Config {
	keybitsSet := false
	flag.Visit(func(f *flag.Flag) { keybitsSet = keybitsSet || f.Name == "keybits" })
	if !keybitsSet {
		cfg.KeyBits = 256
	}
	return cfg
}

func logf(format string, args ...any) { fmt.Printf(format+"\n", args...) }

// writeReport writes a gate or soak report as indented JSON.
func writeReport(path string, report any) {
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fatal(err)
	}
}

// writeThenCheck is the tail of every gate: the report goes to disk
// first, so a failing run still leaves its evidence behind, then Check
// decides between a nonzero exit and the PASS line.
func writeThenCheck(path string, report interface{ Check() error }, pass string) {
	writeReport(path, report)
	if err := report.Check(); err != nil {
		fatal(err)
	}
	fmt.Printf("  gate: PASS (%s), report in %s\n", pass, path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ppgnn-experiments:", err)
	os.Exit(1)
}
