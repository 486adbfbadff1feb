package main

import (
	"fmt"
	"io"
	"math"
)

// smokeSeconds is the -seconds of a smoke run: a 0.4 s timed loop (a few
// queries at smoke sizes) and a one-query traced pass.
const smokeSeconds = 1

// runSmoke runs every workload shrunk (workload.smoke), traced, for a few
// queries, and checks the shape of what comes out: every per-layer metric
// present and finite, the layer replay accounting for the LSP's time, and
// — inside the traced pass — the oracle and the byte-identity of the TCP,
// in-process and replayed answers.
func runSmoke(w io.Writer, seed int64) error {
	for _, wl := range workloads {
		rec, err := smokeOne(wl.smoke(), seed)
		if err != nil {
			return fmt.Errorf("smoke %s: %w", wl.Name, err)
		}
		fmt.Fprintf(w, "smoke %-20s ok: %d metrics, lsp coverage %.3f, client coverage %.3f\n",
			wl.Name, len(rec.Metrics), rec.Metrics["trace.lsp_coverage"].Value, rec.Metrics["trace.client_coverage"].Value)
	}
	return nil
}

func smokeOne(wl workload, seed int64) (*runRecord, error) {
	rec, err := runWorkload(wl, seed, smokeSeconds, true, 0)
	if err != nil {
		return nil, err
	}
	if !rec.correct {
		return nil, fmt.Errorf("an answer failed its oracle: %v", rec.firstErr)
	}
	if err := checkShape(rec, perLayer); err != nil {
		return nil, err
	}
	// At smoke sizes LSP.Process is a millisecond or less, so scheduling
	// noise is a large share of it; the README's 0.95–1.05 is for the
	// full-size runs. A layer missing from the replay still shows here.
	if c := rec.Metrics["trace.lsp_coverage"].Value; c < 0.5 || c > 1.5 {
		return nil, fmt.Errorf("trace.lsp_coverage %.3f: the layer replay does not account for LSP.Process", c)
	}
	return rec, nil
}

// checkShape verifies a record carries exactly the metrics of defs, with
// their units, and that every value is a finite number.
func checkShape(rec *runRecord, defs []metricDef) error {
	if len(rec.Metrics) != len(defs) {
		return fmt.Errorf("%d metrics reported, the tables list %d", len(rec.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := rec.Metrics[d.Name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s is missing", d.Name)
		case m.Unit != d.Unit:
			return fmt.Errorf("metric %s has unit %q, want %q", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return fmt.Errorf("metric %s is %v", d.Name, m.Value)
		}
	}
	return nil
}
