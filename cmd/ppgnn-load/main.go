// Command ppgnn-load is the open-loop load generator for a running
// ppgnn-lsp: it drives a fleet of client groups at a fixed Poisson
// arrival rate, measures per-stage latency quantiles, classifies every
// failure into the closed error taxonomy, and — by default — checks
// every decrypted answer against a local plaintext engine built over the
// same dataset the daemon loaded. It exits nonzero on any oracle
// mismatch or abandoned session. The in-process run, with SLOs and a
// faulted pass, is `ppgnn-experiments -gate load`.
//
// Usage:
//
//	ppgnn-load [flags]
//
//	-addr A       ppgnn-lsp address (default 127.0.0.1:9042)
//	-dataset F    point file the daemon loaded (default: the bundled
//	              Sequoia substitute) — the oracle must see the same data
//	-rate R       offered arrivals per second (default 40)
//	-measure D    scored window (default 10s), after a 2s unscored warm-up
//	-groups N     independent client groups; arrivals round-robin and
//	              queue per group (default 8)
//	-group-size N users per group (default 4)
//	-keybits N    Paillier modulus (default 256 — the harness measures
//	              the service, not the paper's cost model)
//	-k N          POIs per answer (default 4)
//	-seed N       drives keys, locations, arrivals, and backoff jitter
//	-oracle       conformance-check every answer (default true; forces
//	              NoSanitize queries so answers are deterministic)
//	-out F        write the JSON report (one pass of the -gate load shape)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"ppgnn/internal/core"
	"ppgnn/internal/dataset"
	"ppgnn/internal/geo"
	"ppgnn/internal/gnn"
	"ppgnn/internal/load"
	"ppgnn/internal/obs"
	"ppgnn/internal/rtree"
)

const (
	// warmup is the unscored window that fills pools and OS buffers.
	warmup = 2 * time.Second
	// precompute is the encryption-randomness factors pooled per group
	// before the run.
	precompute = 64
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9042", "ppgnn-lsp address")
	datasetPath := flag.String("dataset", "", "point file the daemon loaded (default: Sequoia substitute)")
	rate := flag.Float64("rate", 40, "offered arrivals per second")
	measure := flag.Duration("measure", 10*time.Second, "scored window")
	groups := flag.Int("groups", 8, "independent client groups")
	groupSize := flag.Int("group-size", 4, "users per group")
	keybits := flag.Int("keybits", 256, "Paillier modulus in bits")
	k := flag.Int("k", 4, "POIs per answer")
	seed := flag.Int64("seed", 1, "base RNG seed")
	oracleOn := flag.Bool("oracle", true, "conformance-check every answer against the plaintext engine")
	out := flag.String("out", "", "write the JSON report here")
	flag.Parse()

	var items []rtree.Item
	if *datasetPath != "" {
		var err error
		if items, err = dataset.LoadFile(*datasetPath); err != nil {
			fatal(err)
		}
	} else {
		items = dataset.Sequoia(dataset.DefaultSeed)
	}

	fc := load.FleetConfig{
		Addr:       *addr,
		Groups:     *groups,
		GroupSize:  *groupSize,
		KeyBits:    *keybits,
		K:          *k,
		Seed:       *seed,
		Precompute: precompute,
	}
	if *oracleOn {
		// The oracle is a local plaintext engine over the same dataset;
		// answers only match if the daemon loaded identical points.
		lsp := core.NewLSP(items, geo.UnitRect)
		fc.Oracle = func(q []geo.Point, kk int) []gnn.Result { return lsp.Search(q, kk, gnn.Sum) }
	}
	fleet, err := load.NewFleet(fc)
	if err != nil {
		fatal(err)
	}
	defer fleet.Close()

	d, err := load.NewDriver(load.Config{
		Rate:          *rate,
		Warmup:        warmup,
		Measure:       *measure,
		Seed:          *seed,
		OracleChecked: fc.Oracle != nil,
		Obs:           obs.Default(),
		Logf:          log.Printf,
	}, fleet)
	if err != nil {
		fatal(err)
	}
	rep, err := d.Run(context.Background())
	if err != nil {
		fatal(err)
	}

	for i := range rep.Stages {
		fmt.Println(rep.Stages[i].Summary())
	}
	fmt.Printf("run     arrivals=%d abandoned=%d peak-in-flight=%d sched-lag-p99=%.4fs oracle-mismatches=%d cores=%d\n",
		rep.Arrivals, rep.Abandoned, rep.PeakInFlight, rep.SchedLagP99, rep.Mismatches(), rep.Cores)

	if *out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("report written to %s\n", *out)
	}

	// Errors are tolerated (the daemon may shed), but an oracle mismatch
	// or a session abandoned past the drain deadline fails the run.
	slo := load.SLO{MaxErrorRate: 1}
	if err := slo.Check(rep); err != nil {
		fatal(err)
	}
	fmt.Println("slo: PASS (" + slo.String() + ")")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ppgnn-load:", err)
	os.Exit(1)
}
