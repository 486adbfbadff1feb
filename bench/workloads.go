package main

import (
	"encoding/json"
	"fmt"
	"io"

	"ppgnn/internal/core"
)

// workload is one set of inputs the benchmark runs. The program under test
// never sees the name: every field below turns into ordinary parameters of
// the exported constructors.
type workload struct {
	Name string
	Why  string // one line, copied into BENCHMARK.json

	// OpenRate > 0 makes the loop open: that many seeded arrivals per
	// second, each timed from its due time. 0 is a closed loop in which a
	// client sends its next query when the previous one is verified.
	OpenRate float64
	Clients  int // client goroutines = TCP connections (never more than 2)
	Groups   int // pre-keyed groups each client rotates over

	// Width is the worker-pool width of everything that fans out: the
	// client's batch encryptions (the process-default pool) and the LSP
	// (core.LSP.Workers). Width 1 with one closed-loop client keeps a single
	// thread busy at any instant, which is what makes a run repeatable on
	// two cores of a shared host; the traced pass still times the LSP at
	// GOMAXPROCS for parallel.lsp_speedup.
	Width int

	N, K, KeyBits int
	D             int // Privacy I parameter d; 0 = the paper's 25. δ is 100, or d for n=1
	Variant       core.Variant
	NoSanitize    bool
	Rerandomize   bool // core.LSP.Rerandomize

	POIs  int // dataset.Synthetic size; 0 = the Sequoia substitute
	Churn int // LSP.Insert and LSP.Delete calls between consecutive queries

	// Service puts an svc.Service with two rerandomising tenants, its
	// admission control and a coalescer behind the server, and gives the
	// clients randomness pools, refillers, a shared EncCache and CacheSets.
	Service bool

	// TraceQueries is the length of the traced pass at the contract's
	// run length; it scales with -seconds.
	TraceQueries int
}

// contractSeconds is BENCHMARK.json's run_seconds; TraceQueries and the
// sample-count floors are sized for it.
const contractSeconds = 36

// gated are the workloads BENCHMARK.json lists. Each is a closed loop of one
// client at Width 1: on the two shared cores the driver's box gives a run,
// two busy threads measured the neighbours (the middle half of ten
// identical runs spread over 20–28% of the median), one busy thread with a
// core to spare does not.
var gated = []workload{
	{
		Name:    "paper_default",
		Why:     "Table 3 defaults (n=8 d=25 delta=100 k=8, 1024-bit, PPGNN, sanitation on, fresh dummies), one closed-loop client: sanitation dominates",
		Clients: 1, Groups: 4, Width: 1, N: 8, K: 8, KeyBits: 1024,
		Variant: core.VariantPPGNN, TraceQueries: 9,
	},
	{
		Name:    "opt_2048_nas",
		Why:     "2048-bit PPGNN-OPT, k=16, no sanitation, rerandomised answers, one closed-loop client: modular exponentiation dominates; sanitation and index changes must not move it",
		Clients: 1, Groups: 2, Width: 1, N: 8, K: 16, KeyBits: 2048,
		Variant: core.VariantOPT, NoSanitize: true, Rerandomize: true, TraceQueries: 5,
	},
	{
		Name:    "big_db_churn",
		Why:     "1M POIs on the dynamic R-tree, 64 inserts + 64 deletes between queries, one closed-loop client, no sanitation: kGNN dominates and writes sit beside reads",
		Clients: 1, Groups: 4, Width: 1, N: 8, K: 8, KeyBits: 1024,
		Variant: core.VariantPPGNN, NoSanitize: true,
		POIs: 1000000, Churn: 64, TraceQueries: 9,
	},
}

// ungated run by name, under -workload all and under -smoke, but are not in
// BENCHMARK.json: svc_small_sessions needs concurrent sessions, refillers
// and a coalescer — a dozen goroutines on two cores — and an 11 ms median
// made of hand-offs and timer deadlines moved 19–35% between identical
// runs on the driver's box, past the widest bound the contract allows.
var ungated = []workload{
	{
		Name:     "svc_small_sessions",
		Why:      "open loop, 20 single-user sessions/s over 2 connections into a 2-tenant svc with admission, coalescer, pools and EncCache: wire, transport and svc overheads are a visible share",
		OpenRate: 20, Clients: 2, Groups: 4, Width: benchProcs, N: 1, D: 8, K: 8, KeyBits: 1024,
		Variant: core.VariantPPGNN, Rerandomize: true,
		POIs: 60000, Service: true, TraceQueries: 43,
	},
}

var workloads = append(append([]workload(nil), gated...), ungated...)

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// smoke shrinks a workload so the whole set runs in seconds: quarter-size
// keys, a tenth of the larger databases, one group per client. Structure
// (variant, sanitation, churn, service wiring) is unchanged, so the smoke
// run exercises every code path of the full one.
func (w workload) smoke() workload {
	w.KeyBits /= 4
	if w.POIs > 100000 {
		w.POIs /= 10
	}
	w.Groups = 1
	w.TraceQueries = 5
	if w.OpenRate > 0 {
		w.OpenRate = 40
	}
	return w
}

func (w workload) params() core.Params {
	p := core.DefaultParams(w.N)
	if w.D > 0 {
		p.D = w.D
		if w.N == 1 {
			p.Delta = w.D
		}
	}
	p.K = w.K
	p.KeyBits = w.KeyBits
	p.Variant = w.Variant
	p.NoSanitize = w.NoSanitize
	return p
}

// metricDef describes one reported metric. End-to-end metrics carry a
// Bound; per-layer metrics carry the layer they belong to, the end-to-end
// metric they should move and the workload they should move it on.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" | "higher"
	Bound  float64 // end-to-end only: share of the parent's median
	Layer  string  // per-layer only
	Moves  string  // per-layer only: end-to-end metric it should move
	On     string  // per-layer only: workload on which it should
}

// endToEnd are the metrics a user of the system sees. Three of the issue's
// list are per-layer metrics here (README.md, "What changed from the
// issue"): fail_share is 0 on a healthy run, which no relative bound can
// guard (the result's `failed` count does); query_p90_ms needs 100 samples,
// which no gated workload reaches in a run; and peak RSS moves ±25% with
// garbage-collector timing on the 30 MB workloads, so the live heap stands
// in for it. The timing metrics are medians over the run's turns, so a
// neighbour's burst on the shared box moves them little, but a run that
// shares its cores with a busy neighbour throughout is slower as a whole:
// they keep the widest bound the contract allows. The deterministic
// metrics keep tight bounds.
var endToEnd = []metricDef{
	{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "queries_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "user_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_query", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "wire_bytes_per_query", Unit: "bytes", Better: "lower", Bound: 0.005},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

const (
	e2eLatency = "query_p50_ms"
	e2eRate    = "queries_per_s"
	e2eUser    = "user_ms_p50"
	e2eCPU     = "cpu_ms_per_query"
	e2eWire    = "wire_bytes_per_query"
	e2eSetup   = "setup_s"
	e2eHeap    = "live_heap_mb"
)

var perLayer = []metricDef{
	{Name: "core.build_query_ms", Unit: "ms", Better: "lower", Layer: "core", Moves: e2eUser, On: "opt_2048_nas"},
	{Name: "core.lsp_process_ms", Unit: "ms", Better: "lower", Layer: "core", Moves: e2eLatency, On: "paper_default"},
	{Name: "core.decrypt_answer_ms", Unit: "ms", Better: "lower", Layer: "core", Moves: e2eUser, On: "opt_2048_nas"},
	{Name: "core.marshal_query_ms", Unit: "ms", Better: "lower", Layer: "core", Moves: e2eLatency, On: "svc_small_sessions"},
	{Name: "core.unmarshal_query_ms", Unit: "ms", Better: "lower", Layer: "core", Moves: e2eLatency, On: "svc_small_sessions"},
	{Name: "core.marshal_answer_ms", Unit: "ms", Better: "lower", Layer: "core", Moves: e2eLatency, On: "svc_small_sessions"},
	{Name: "core.query_bytes", Unit: "bytes", Better: "lower", Layer: "core", Moves: e2eWire, On: "paper_default"},
	{Name: "core.answer_bytes", Unit: "bytes", Better: "lower", Layer: "core", Moves: e2eWire, On: "opt_2048_nas"},

	{Name: "partition.solve_ms", Unit: "ms", Better: "lower", Layer: "partition", Moves: e2eUser, On: "paper_default"},
	{Name: "partition.candidates_ms", Unit: "ms", Better: "lower", Layer: "partition", Moves: e2eLatency, On: "paper_default"},
	{Name: "partition.candidates_count", Unit: "count", Better: "lower", Layer: "partition", Moves: e2eLatency, On: "paper_default"},

	{Name: "dummy.location_sets_ms", Unit: "ms", Better: "lower", Layer: "dummy", Moves: e2eUser, On: "paper_default"},

	{Name: "gnn.search_ms", Unit: "ms", Better: "lower", Layer: "gnn", Moves: e2eLatency, On: "big_db_churn"},
	{Name: "gnn.search_us_per_candidate", Unit: "us", Better: "lower", Layer: "gnn", Moves: e2eLatency, On: "big_db_churn"},
	{Name: "gnn.scanned_pois_per_query", Unit: "count", Better: "lower", Layer: "gnn", Moves: e2eLatency, On: "big_db_churn"},
	{Name: "rtree.bulk_build_ms", Unit: "ms", Better: "lower", Layer: "rtree", Moves: e2eSetup, On: "big_db_churn"},
	{Name: "rtree.insert_us", Unit: "us", Better: "lower", Layer: "rtree", Moves: e2eRate, On: "big_db_churn"},
	{Name: "rtree.delete_us", Unit: "us", Better: "lower", Layer: "rtree", Moves: e2eRate, On: "big_db_churn"},

	{Name: "sanitize.sanitize_ms", Unit: "ms", Better: "lower", Layer: "sanitize", Moves: e2eLatency, On: "paper_default"},
	{Name: "sanitize.sample_size", Unit: "count", Better: "lower", Layer: "sanitize", Moves: e2eLatency, On: "paper_default"},
	{Name: "sanitize.kept_share", Unit: "ratio", Better: "higher", Layer: "sanitize", Moves: e2eLatency, On: "paper_default"},

	{Name: "encode.encode_ms", Unit: "ms", Better: "lower", Layer: "encode", Moves: e2eLatency, On: "paper_default"},
	{Name: "encode.decode_ms", Unit: "ms", Better: "lower", Layer: "encode", Moves: e2eUser, On: "svc_small_sessions"},
	{Name: "encode.matrix_rows", Unit: "count", Better: "lower", Layer: "encode", Moves: e2eWire, On: "opt_2048_nas"},

	{Name: "paillier.encrypt_indicator_ms", Unit: "ms", Better: "lower", Layer: "paillier", Moves: e2eUser, On: "opt_2048_nas"},
	{Name: "paillier.select_ms", Unit: "ms", Better: "lower", Layer: "paillier", Moves: e2eLatency, On: "opt_2048_nas"},
	{Name: "paillier.rerandomize_ms", Unit: "ms", Better: "lower", Layer: "paillier", Moves: e2eLatency, On: "opt_2048_nas"},
	{Name: "paillier.decrypt_ms", Unit: "ms", Better: "lower", Layer: "paillier", Moves: e2eUser, On: "opt_2048_nas"},
	{Name: "paillier.enc1_count", Unit: "count", Better: "lower", Layer: "paillier", Moves: e2eUser, On: "paper_default"},
	{Name: "paillier.enc2_count", Unit: "count", Better: "lower", Layer: "paillier", Moves: e2eUser, On: "opt_2048_nas"},
	{Name: "paillier.enc_pooled_count", Unit: "count", Better: "higher", Layer: "paillier", Moves: e2eUser, On: "svc_small_sessions"},
	{Name: "paillier.dec_count", Unit: "count", Better: "lower", Layer: "paillier", Moves: e2eUser, On: "opt_2048_nas"},
	{Name: "paillier.pool_hit_share", Unit: "ratio", Better: "higher", Layer: "paillier", Moves: e2eUser, On: "svc_small_sessions"},
	{Name: "paillier.enc_cache_hit_share", Unit: "ratio", Better: "higher", Layer: "paillier", Moves: e2eUser, On: "svc_small_sessions"},
	{Name: "paillier.refill_factors", Unit: "count", Better: "lower", Layer: "paillier", Moves: e2eLatency, On: "svc_small_sessions"},

	{Name: "modmath.exp_us", Unit: "us", Better: "lower", Layer: "modmath", Moves: e2eLatency, On: "opt_2048_nas"},
	{Name: "modmath.multiexp_us", Unit: "us", Better: "lower", Layer: "modmath", Moves: e2eLatency, On: "opt_2048_nas"},

	{Name: "parallel.lsp_speedup", Unit: "ratio", Better: "higher", Layer: "parallel", Moves: e2eLatency, On: "big_db_churn"},
	{Name: "parallel.coalesce_batches", Unit: "count", Better: "lower", Layer: "parallel", Moves: e2eLatency, On: "svc_small_sessions"},
	{Name: "parallel.coalesce_mean_batch", Unit: "count", Better: "higher", Layer: "parallel", Moves: e2eLatency, On: "svc_small_sessions"},

	{Name: "transport.roundtrip_ms", Unit: "ms", Better: "lower", Layer: "transport", Moves: e2eLatency, On: "svc_small_sessions"},
	{Name: "transport.overhead_ms", Unit: "ms", Better: "lower", Layer: "transport", Moves: e2eLatency, On: "svc_small_sessions"},
	{Name: "transport.dials", Unit: "count", Better: "lower", Layer: "transport", Moves: e2eLatency, On: "svc_small_sessions"},
	{Name: "transport.retries", Unit: "count", Better: "lower", Layer: "transport", Moves: e2eLatency, On: "svc_small_sessions"},
	{Name: "svc.admit_us", Unit: "us", Better: "lower", Layer: "svc", Moves: e2eLatency, On: "svc_small_sessions"},
	{Name: "svc.shed_count", Unit: "count", Better: "lower", Layer: "svc", Moves: e2eRate, On: "svc_small_sessions"},

	{Name: "load.measured_queries", Unit: "count", Better: "higher", Layer: "load", Moves: e2eRate, On: "paper_default"},
	{Name: "load.fail_share", Unit: "ratio", Better: "lower", Layer: "load", Moves: e2eRate, On: "big_db_churn"},
	{Name: "load.keygen_ms", Unit: "ms", Better: "lower", Layer: "load", Moves: e2eSetup, On: "opt_2048_nas"},
	{Name: "load.peak_rss_mb", Unit: "MB", Better: "lower", Layer: "load", Moves: e2eHeap, On: "big_db_churn"},
	{Name: "load.query_p90_ms", Unit: "ms", Better: "lower", Layer: "load", Moves: e2eLatency, On: "svc_small_sessions"},
	{Name: "load.query_tail_ms", Unit: "ms", Better: "lower", Layer: "load", Moves: e2eLatency, On: "paper_default"},
	{Name: "load.query_tail_pct", Unit: "%", Better: "higher", Layer: "load", Moves: e2eLatency, On: "paper_default"},
	{Name: "load.sched_lag_p90_ms", Unit: "ms", Better: "lower", Layer: "load", Moves: e2eLatency, On: "svc_small_sessions"},
	{Name: "load.achieved_over_offered", Unit: "ratio", Better: "higher", Layer: "load", Moves: e2eRate, On: "svc_small_sessions"},

	{Name: "trace.queries", Unit: "count", Better: "higher", Layer: "trace", Moves: e2eLatency, On: "paper_default"},
	{Name: "trace.lsp_coverage", Unit: "ratio", Better: "higher", Layer: "trace", Moves: e2eLatency, On: "paper_default"},
	{Name: "trace.client_coverage", Unit: "ratio", Better: "higher", Layer: "trace", Moves: e2eUser, On: "opt_2048_nas"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower", Layer: "trace", Moves: e2eLatency, On: "paper_default"},
	{Name: "trace.self_share.sanitize", Unit: "ratio", Better: "lower", Layer: "trace", Moves: e2eLatency, On: "paper_default"},
	{Name: "trace.self_share.gnn", Unit: "ratio", Better: "lower", Layer: "trace", Moves: e2eLatency, On: "big_db_churn"},
	{Name: "trace.self_share.paillier", Unit: "ratio", Better: "lower", Layer: "trace", Moves: e2eLatency, On: "opt_2048_nas"},
	{Name: "trace.self_share.partition", Unit: "ratio", Better: "lower", Layer: "trace", Moves: e2eLatency, On: "paper_default"},
	{Name: "trace.self_share.dummy", Unit: "ratio", Better: "lower", Layer: "trace", Moves: e2eUser, On: "paper_default"},
	{Name: "trace.self_share.encode", Unit: "ratio", Better: "lower", Layer: "trace", Moves: e2eLatency, On: "paper_default"},
	{Name: "trace.self_share.transport", Unit: "ratio", Better: "lower", Layer: "trace", Moves: e2eLatency, On: "svc_small_sessions"},
	{Name: "trace.self_share.parallel", Unit: "ratio", Better: "lower", Layer: "trace", Moves: e2eLatency, On: "svc_small_sessions"},
}

// printContract writes BENCHMARK.json from the tables in workloads.go, so
// the file and the program cannot disagree.
func printContract(w io.Writer) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: contractSeconds,
	}
	for _, x := range gated {
		doc.Workloads = append(doc.Workloads, wl{x.Name, x.Why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(doc)
}
