// Command bench is the repository's benchmark: workloads over the
// whole PPGNN system (clients, TCP transport, LSP, all in this process),
// end-to-end metrics from an untraced run, per-layer metrics from a traced
// one, every answer checked against a plaintext oracle. README.md has the
// workloads, the metrics and how they should interact.
//
//	bench -workload paper_default -seed 1 -seconds 36 -trace 0   one run, one JSON line last
//	bench -out a.json [-runs 3]                                  every workload, untraced and traced
//	bench -compare a.json b.json                                 two -out files against the bounds
//	bench -smoke                                                 every workload, shrunk, in seconds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

var processStart = time.Now()

// benchProcs is the GOMAXPROCS every run is pinned to. The gated workloads
// keep one thread busy (workload.Width); the second core takes the garbage
// collector, the network poller and whatever the host's neighbours steal.
const benchProcs = 2

// result is the last line of a single-workload run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outFile is what -out writes and -compare reads.
type outFile struct {
	Commit     string       `json:"commit"`
	GoVersion  string       `json:"go_version"`
	NumCPU     int          `json:"nproc"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Runs       []*runRecord `json:"runs"`
}

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	traceOut string
	out      string
	record   string
	runs     int
	smoke    bool
	compare  bool
	contract bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	flag.Int64Var(&o.seed, "seed", 1, "derives locations, dummies, churn and the arrival schedule")
	flag.IntVar(&o.seconds, "seconds", contractSeconds, "length of the measure window")
	flag.IntVar(&o.trace, "trace", 0, "1 = run the traced pass too and report the per-layer metrics instead")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced pass's spans to this file")
	flag.StringVar(&o.out, "out", "", "with -workload all: write every run's record to this file")
	flag.StringVar(&o.record, "record", "", "single workload: also write the run's record to this file")
	flag.IntVar(&o.runs, "runs", 1, "with -workload all: untraced runs per workload")
	flag.BoolVar(&o.smoke, "smoke", false, "run every workload shrunk to a few queries and check the output's shape")
	flag.BoolVar(&o.compare, "compare", false, "compare two -out files: bench -compare a.json b.json")
	flag.BoolVar(&o.contract, "print-contract", false, "print BENCHMARK.json from the tables in workloads.go")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	switch {
	case o.contract:
		return printContract(os.Stdout)
	case o.compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two files")
		}
		return compareFiles(os.Stdout, args[0], args[1])
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds %d: want at least 1", o.seconds)
	}
	if err := pinProcs(); err != nil {
		return err
	}
	switch {
	case o.smoke:
		return runSmoke(os.Stdout, o.seed)
	case o.workload == "all":
		return runAll(o)
	}
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	rec, err := runWorkload(w, o.seed, o.seconds, o.trace == 1, time.Since(processStart))
	if err != nil {
		return err
	}
	if rec.tracer != nil && o.traceOut != "" {
		if err := rec.tracer.writeFile(o.traceOut); err != nil {
			return err
		}
	}
	if o.record != "" {
		b, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.record, b, 0o644); err != nil {
			return err
		}
	}
	printRecord(os.Stdout, rec)
	if !rec.correct {
		return fmt.Errorf("%s: an answer failed its oracle: %v", w.Name, rec.firstErr)
	}
	return nil
}

// pinProcs fixes GOMAXPROCS at benchProcs. A one-core box cannot run the
// benchmark: its numbers would describe a different system.
func pinProcs() error {
	if n := runtime.NumCPU(); n < benchProcs {
		return fmt.Errorf("the benchmark needs %d cores, this machine has %d", benchProcs, n)
	}
	runtime.GOMAXPROCS(benchProcs)
	return nil
}

// printRecord prints every metric by name with its unit, then the one-line
// result the contract asks for.
func printRecord(w *os.File, rec *runRecord) {
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s seed=%d seconds=%d trace=%d\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace)
	for _, n := range names {
		m := rec.Metrics[n]
		fmt.Fprintf(w, "%-34s %14.4f %s\n", n, m.Value, m.Unit)
	}
	res := result{Correct: rec.correct, Metrics: rec.Metrics}
	for name, p := range rec.Phases {
		if name == "measure" || name == "traced" {
			res.Attempted += p.Sent
			res.Failed += p.Failed
		}
	}
	b, _ := json.Marshal(res) // plain maps and numbers
	fmt.Fprintf(w, "%s\n", b)
}

// runAll runs every workload in a child process of its own — so set-up
// time and memory are per workload — o.runs times untraced and once traced,
// and with -out writes all records to that file.
func runAll(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := outFile{Commit: commit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: benchProcs}
	var failed error
	for _, w := range workloads {
		for i := 0; i <= o.runs; i++ {
			trace := "0"
			if i == o.runs {
				trace = "1"
			}
			args := []string{"-workload", w.Name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds), "-trace", trace}
			part := o.out + ".run" // the child hands its record over in a file beside -out
			if o.out != "" {
				args = append(args, "-record", part)
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				failed = fmt.Errorf("%s (trace %s): %w", w.Name, trace, err)
				continue
			}
			if o.out == "" {
				continue
			}
			b, err := os.ReadFile(part)
			if err != nil {
				return err
			}
			if err := os.Remove(part); err != nil {
				return err
			}
			rec := &runRecord{}
			if err := json.Unmarshal(b, rec); err != nil {
				return err
			}
			file.Runs = append(file.Runs, rec)
		}
	}
	if o.out != "" {
		b, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, b, 0o644); err != nil {
			return err
		}
	}
	return failed
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
