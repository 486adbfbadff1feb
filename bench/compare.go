package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// verdicts of one (workload, end-to-end metric) pair.
const (
	verdictOK         = "ok"
	verdictWorse      = "WORSE"      // b is worse than a by more than the bound
	verdictUnresolved = "unresolved" // a side's own run-to-run spread exceeds the bound
)

// runSpread is how far one side's own runs disagree, as a share of their
// median: the interquartile distance from four runs up, the full range
// below that.
func runSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	if len(xs) >= 4 {
		return spread(xs)
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	if m := median(xs); m != 0 {
		return (hi - lo) / math.Abs(m)
	}
	return 0
}

// judge compares side b with side a on one metric. worse is b's median
// relative to a's, positive in the direction the metric calls worse.
func judge(d metricDef, a, b []float64) (worse float64, verdict string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / math.Abs(ma)
	}
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case runSpread(a) > d.Bound || runSpread(b) > d.Bound:
		return worse, verdictUnresolved
	case worse > d.Bound:
		return worse, verdictWorse
	}
	return worse, verdictOK
}

func loadOut(path string) (*outFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f := &outFile{}
	if err := json.Unmarshal(b, f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// values collects one metric of one workload over a file's untraced runs.
func (f *outFile) values(workload, name string) []float64 {
	var xs []float64
	for _, r := range f.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Trace == 0 {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the relative difference and the bound, and fails when any pair is
// outside its bound. A metric whose own spread exceeds its bound is
// reported as unresolved, which is not the same as unchanged.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := loadOut(pathA)
	if err != nil {
		return err
	}
	b, err := loadOut(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "a: %s (commit %s)\nb: %s (commit %s)\n", pathA, a.Commit, pathB, b.Commit)
	fmt.Fprintf(w, "%-20s %-30s %5s %14s %14s %9s %8s %9s %9s  %s\n",
		"workload", "metric", "runs", "a median", "b median", "b worse", "bound", "a spread", "b spread", "verdict")
	worse, unresolved := 0, 0
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := a.values(wl.Name, d.Name), b.values(wl.Name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				return fmt.Errorf("%s %s: missing from one of the files", wl.Name, d.Name)
			}
			rel, verdict := judge(d, va, vb)
			switch verdict {
			case verdictWorse:
				worse++
			case verdictUnresolved:
				unresolved++
			}
			fmt.Fprintf(w, "%-20s %-30s %2d/%-2d %14.4f %14.4f %+8.2f%% %7.2f%% %8.2f%% %8.2f%%  %s\n",
				wl.Name, d.Name+" ("+d.Unit+")", len(va), len(vb), median(va), median(vb),
				100*rel, 100*d.Bound, 100*runSpread(va), 100*runSpread(vb), verdict)
		}
	}
	fmt.Fprintf(w, "%d outside their bound, %d unresolved\n", worse, unresolved)
	if worse > 0 {
		return fmt.Errorf("%d metric(s) of b are worse than a by more than their bound", worse)
	}
	return nil
}
