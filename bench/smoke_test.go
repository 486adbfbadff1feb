package main

import (
	"bytes"
	"os"
	"testing"
)

// TestSmoke runs every workload, shrunk, through set-up, warm-up, a short
// timed loop and the traced pass, and checks what -smoke checks: all
// per-layer metrics present, layer coverage of LSP.Process, and — inside
// the traced pass — the oracle and the byte-identity of the TCP,
// in-process and replayed answers.
func TestSmoke(t *testing.T) {
	if err := pinProcs(); err != nil {
		t.Skip(err)
	}
	var out bytes.Buffer
	if err := runSmoke(&out, 1); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	t.Log("\n" + out.String())
}

// TestUntracedShape checks the other half of the output contract: an
// untraced run reports exactly the end-to-end metrics, none of them zero.
func TestUntracedShape(t *testing.T) {
	if err := pinProcs(); err != nil {
		t.Skip(err)
	}
	for _, w := range workloads {
		rec, err := runWorkload(w.smoke(), 2, smokeSeconds, false, 0)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if err := checkShape(rec, endToEnd); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		for name, m := range rec.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v; an end-to-end metric must never be 0", w.Name, name, m.Value)
			}
		}
		if p := rec.Phases["measure"]; !rec.correct || p.Failed != 0 || p.Sent == 0 {
			t.Errorf("%s: measure phase %+v, correct=%v: %v", w.Name, p, rec.correct, rec.firstErr)
		}
	}
}

// TestContractFile keeps BENCHMARK.json and the tables in workloads.go
// from drifting apart: the file is exactly what -print-contract prints.
func TestContractFile(t *testing.T) {
	var want bytes.Buffer
	if err := printContract(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("BENCHMARK.json differs from `bench -print-contract`; regenerate it")
	}
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if seen[d.Name] {
				t.Errorf("metric %s is listed twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	for _, d := range perLayer {
		if d.Layer == "" || !seen[d.Moves] {
			t.Errorf("per-layer metric %s needs a layer and an end-to-end metric it should move", d.Name)
		}
		if _, err := findWorkload(d.On); err != nil {
			t.Errorf("per-layer metric %s: %v", d.Name, err)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}
