package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "query_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "queries_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"unchanged", lower, []float64{100, 101, 99}, []float64{100, 102, 98}, verdictOK},
		{"slower within bound", lower, []float64{100, 101, 99}, []float64{108, 109, 107}, verdictOK},
		{"slower beyond bound", lower, []float64{100, 101, 99}, []float64{115, 116, 114}, verdictWorse},
		{"faster is never worse", lower, []float64{100, 101, 99}, []float64{50, 51, 49}, verdictOK},
		{"throughput down beyond bound", higher, []float64{10, 10.1, 9.9}, []float64{8, 8.1, 7.9}, verdictWorse},
		{"throughput up", higher, []float64{10, 10.1, 9.9}, []float64{15, 15.1, 14.9}, verdictOK},
		{"own spread beyond bound is unresolved, not unchanged", lower, []float64{100, 130, 80}, []float64{100, 101, 99}, verdictUnresolved},
		{"unresolved even when the medians differ", lower, []float64{100, 101, 99}, []float64{150, 200, 110}, verdictUnresolved},
	} {
		if _, got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	if rel, _ := judge(higher, []float64{10}, []float64{8}); !near(rel, 0.2) {
		t.Errorf("worse share = %v, want +0.2 for a higher-is-better metric that fell by a fifth", rel)
	}
}

// fileWith writes an -out file whose untraced runs report v (scaled per
// run by jitter) for every end-to-end metric of every workload.
func fileWith(t *testing.T, name string, v float64, jitter []float64) string {
	t.Helper()
	f := outFile{Commit: name}
	for _, w := range workloads {
		for _, j := range jitter {
			rec := &runRecord{Workload: w.Name, Metrics: map[string]metric{}}
			for _, d := range endToEnd {
				rec.Metrics[d.Name] = metric{Value: v * j, Unit: d.Unit}
			}
			f.Runs = append(f.Runs, rec)
		}
	}
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name+".json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareFiles(t *testing.T) {
	steady := []float64{1, 1.001, 0.999}
	base := fileWith(t, "base", 100, steady)
	same := fileWith(t, "same", 100.2, steady)
	slow := fileWith(t, "slow", 130, steady)
	noisy := fileWith(t, "noisy", 100, []float64{1, 1.4, 0.7})

	var out bytes.Buffer
	if err := compareFiles(&out, base, same); err != nil {
		t.Errorf("equal files: %v\n%s", err, out.String())
	}
	for _, d := range endToEnd {
		if !strings.Contains(out.String(), d.Name) {
			t.Errorf("report does not mention %s", d.Name)
		}
	}
	out.Reset()
	// Every lower-is-better metric is 30% up: outside every bound.
	if err := compareFiles(&out, base, slow); err == nil {
		t.Errorf("a 30%% regression compared clean:\n%s", out.String())
	}
	if !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("report does not flag the regression:\n%s", out.String())
	}
	out.Reset()
	if err := compareFiles(&out, base, noisy); err != nil {
		t.Errorf("noisy side: %v", err)
	}
	if !strings.Contains(out.String(), verdictUnresolved) || strings.Contains(out.String(), "  "+verdictOK+"\n") {
		t.Errorf("a side noisier than every bound must be unresolved on every row:\n%s", out.String())
	}
}
