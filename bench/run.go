package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ppgnn/internal/cost"
	"ppgnn/internal/obs"
)

// setupReps is how many times a run sets the system up to take the median.
const setupReps = 5

// tracedShare splits a -trace 1 run: this share of -seconds is an untraced
// timed loop (counts, load metrics); the traced pass gets the rest.
const tracedShare = 0.4

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// phaseCount is the sent/succeeded/failed tally of one phase of a run.
type phaseCount struct {
	Sent      int `json:"sent"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
}

// runRecord is everything one run of one workload produced.
type runRecord struct {
	Workload string                `json:"workload"`
	Seed     int64                 `json:"seed"`
	Seconds  int                   `json:"seconds"`
	Trace    int                   `json:"trace"`
	KeyBits  int                   `json:"key_bits"`
	Phases   map[string]phaseCount `json:"phases"`
	Metrics  map[string]metric     `json:"metrics"`

	correct  bool
	firstErr error
	tracer   *tracer
}

func (r *runRecord) count(name string, t tally) {
	r.Phases[name] = phaseCount{Sent: t.attempted, Succeeded: t.attempted - t.failed, Failed: t.failed}
	if t.failed > 0 {
		r.correct = false
		if r.firstErr == nil {
			r.firstErr = fmt.Errorf("%s: %w", name, t.firstErr)
		}
	}
}

// runWorkload is one run: set-up (several times), warm-up, the measure
// window, and with trace the traced pass. preamble is how long the process
// had run before it got here; set-up time is counted from process start.
func runWorkload(w workload, seed int64, seconds int, trace bool, preamble time.Duration) (*runRecord, error) {
	rec := &runRecord{
		Workload: w.Name, Seed: seed, Seconds: seconds, KeyBits: w.KeyBits,
		Phases: map[string]phaseCount{}, Metrics: map[string]metric{}, correct: true,
	}
	e, setups, keygens, err := timedSetups(w, seed, setupReps)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer e.close()
	e.prepareOracles()

	// Warm-up: one query per group fills the per-key paillier tables, the
	// partition memo and the pooled connection; with churn it also grows
	// the live churn set to its steady size.
	rec.count("warmup", e.runClosed(0, w.Groups).tally())

	window := time.Duration(seconds) * time.Second
	if trace {
		window = time.Duration(float64(window) * tracedShare)
	}
	before := obs.Default().Snapshot()
	var wire0 int64
	for _, c := range e.clients {
		c.meter.Reset()
		wire0 += c.wire.total()
	}
	cpu0 := processCPU()
	var ph phase
	if w.OpenRate > 0 {
		ph = e.runOpen(arrivalOffsets(w.OpenRate, window.Seconds(), seed*31+7))
	} else {
		ph = e.runClosed(window, 0)
	}
	cpu1 := processCPU()
	after := obs.Default().Snapshot()
	var wire1 int64
	var clientOps cost.Snapshot
	for _, c := range e.clients {
		wire1 += c.wire.total()
		clientOps = clientOps.Add(c.meter.Snapshot())
	}
	t := ph.tally()
	// The samples hold every query and answer for the oracle; they are the
	// harness's memory, not the system's, and go before the heap is read.
	ph.samples = nil
	rec.count("measure", t)
	ok := len(t.latency)
	if ok == 0 {
		return nil, fmt.Errorf("no query of the measure window succeeded: %v", t.firstErr)
	}

	if !trace {
		rec.set(e2eLatency, median(msAll(t.latency)))
		rec.set(e2eRate, rate(w, t, ph.window))
		rec.set(e2eUser, median(msAll(t.user)))
		rec.set(e2eCPU, cpuPerQuery(w, t, cpu1-cpu0))
		rec.set(e2eWire, float64(wire1-wire0)/float64(t.attempted))
		rec.set(e2eSetup, preamble.Seconds()+median(secondsAll(setups)))
		rec.set(e2eHeap, liveHeapMB())
		return rec, nil
	}

	rec.Trace = 1
	nq := w.TraceQueries * seconds / contractSeconds
	if nq < 1 {
		nq = 1
	}
	out, err := e.tracedPass(nq)
	if err != nil {
		return nil, err
	}
	rec.tracer = out.tr
	rec.Phases["traced"] = phaseCount{Sent: nq, Succeeded: nq}
	layerMetrics(rec, w, ph, t, out, before, after, clientOps)
	rec.set("load.keygen_ms", median(msAll(keygens)))
	return rec, nil
}

// rate is verified queries per second. In a closed loop it is what the
// typical turn sustains: clients over the median turn (write batch, query,
// check of the reply), so a neighbour's burst on the shared host, which
// stretches a few turns, leaves it alone where it would pull the window's
// mean. In an open loop arrivals set the pace and it is completions over
// the window.
func rate(w workload, t tally, window time.Duration) float64 {
	if w.OpenRate > 0 {
		return float64(len(t.latency)) / window.Seconds()
	}
	return float64(w.Clients) / (median(msAll(t.cycle)) / 1000)
}

// cpuPerQuery is the CPU time, user and system, the whole process — client,
// server, LSP, garbage collector — spends on a query. With one closed-loop
// client it is the median over turns of what the process used during the
// turn; with overlapping clients turns cannot be told apart and it is the
// window's CPU time over its verified queries. Unlike the wall-clock
// metrics it does not grow when a neighbour takes the core away.
func cpuPerQuery(w workload, t tally, windowCPU time.Duration) float64 {
	if w.OpenRate > 0 || w.Clients > 1 {
		return ms(windowCPU) / float64(len(t.latency))
	}
	return median(msAll(t.cpu))
}

func (r *runRecord) set(name string, v float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				r.Metrics[name] = metric{Value: v, Unit: d.Unit}
				return
			}
		}
	}
	panic("bench: metric " + name + " is not in the tables of workloads.go")
}

// layerMetrics fills every per-layer metric: times are medians over the
// traced queries of each layer's spans, counts come from the cost meters
// and the obs registry over the timed loop, per measured query.
func layerMetrics(rec *runRecord, w workload, ph phase, t tally, out *traceOut, before, after *obs.Snapshot, clientOps cost.Snapshot) {
	spans := out.tr.spans
	// Per query and span name: the summed duration.
	perQuery := map[string]map[int]time.Duration{}
	for _, s := range spans {
		if perQuery[s.Name] == nil {
			perQuery[s.Name] = map[int]time.Duration{}
		}
		perQuery[s.Name][s.Query] += s.dur()
	}
	med := func(name string) time.Duration {
		var ds []float64
		for _, d := range perQuery[name] {
			ds = append(ds, float64(d))
		}
		return time.Duration(median(ds))
	}
	sums, counts := sumByName(spans)
	queries := float64(t.attempted)
	counter := func(name string, labels ...obs.Label) float64 {
		return float64(after.Counter(name, labels...) - before.Counter(name, labels...))
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	rec.set("core.build_query_ms", ms(med(spanBuild)))
	rec.set("core.lsp_process_ms", ms(med(spanLSPw1)))
	rec.set("core.decrypt_answer_ms", ms(med(spanDecrypt)))
	rec.set("core.marshal_query_ms", ms(med("core.marshal_query")))
	rec.set("core.unmarshal_query_ms", ms(med("core.unmarshal_query")))
	rec.set("core.marshal_answer_ms", ms(med("core.marshal_answer")))
	rec.set("core.query_bytes", float64(out.queryBytes))
	rec.set("core.answer_bytes", float64(out.answerBytes))

	rec.set("partition.solve_ms", ms(med("partition.solve")))
	rec.set("partition.candidates_ms", ms(med("partition.candidates")))
	rec.set("partition.candidates_count", float64(out.candidates))
	rec.set("dummy.location_sets_ms", ms(med("dummy.location_sets")))

	rec.set("gnn.search_ms", ms(med("gnn.search")))
	rec.set("gnn.search_us_per_candidate", ratio(us(sums["gnn.search"]), float64(counts["gnn.search"])))
	rec.set("gnn.scanned_pois_per_query", median(out.scanned))
	rec.set("rtree.bulk_build_ms", ms(sums["rtree.bulk_build"]))
	rec.set("rtree.insert_us", ratio(us(ph.insertDur+out.insertDur), float64(ph.inserts+out.inserts)))
	rec.set("rtree.delete_us", ratio(us(ph.deleteDur+out.deleteDur), float64(ph.deletes+out.deletes)))

	rec.set("sanitize.sanitize_ms", ms(med("sanitize.sanitize")))
	rec.set("sanitize.sample_size", float64(out.sampleSize))
	rec.set("sanitize.kept_share", ratio(float64(t.records), float64(len(t.latency)*w.K)))

	rec.set("encode.encode_ms", ms(med("encode.encode")))
	rec.set("encode.decode_ms", ms(med("encode.decode")))
	rec.set("encode.matrix_rows", float64(out.matrixRows))

	rec.set("paillier.encrypt_indicator_ms", ms(med("paillier.encrypt_indicator")))
	rec.set("paillier.select_ms", ms(med("paillier.select")))
	rec.set("paillier.rerandomize_ms", ms(med("paillier.rerandomize")))
	rec.set("paillier.decrypt_ms", ms(med("paillier.decrypt")))
	op := func(name string) float64 { return float64(clientOps.Ops[name]) }
	pooled := op("enc1-pooled") + op("enc2-pooled")
	rec.set("paillier.enc1_count", ratio(op("enc1"), queries))
	rec.set("paillier.enc2_count", ratio(op("enc2"), queries))
	rec.set("paillier.enc_pooled_count", ratio(pooled, queries))
	rec.set("paillier.dec_count", ratio(op("dec1")+op("dec2"), queries))
	rec.set("paillier.pool_hit_share", ratio(pooled, pooled+op("enc1")+op("enc2")))
	hit, miss := counter("paillier_enc_cache_total", obs.L("result", "hit")), counter("paillier_enc_cache_total", obs.L("result", "miss"))
	rec.set("paillier.enc_cache_hit_share", ratio(hit, hit+miss))
	rec.set("paillier.refill_factors", ratio(counter("paillier_pool_refill_factors_total"), queries))

	rec.set("modmath.exp_us", out.expUS)
	rec.set("modmath.multiexp_us", out.multiExpUS)

	rec.set("parallel.lsp_speedup", ratio(float64(med(spanLSPw1)), float64(med(spanLSPwN))))
	batches := 0.0
	for _, trig := range []string{"size", "deadline", "close"} {
		batches += counter("parallel_coalesce_batches_total", obs.L("trigger", trig))
	}
	rec.set("parallel.coalesce_batches", ratio(batches, queries))
	var tasks float64
	if h0, h1 := before.Histogram("parallel_coalesce_batch_tasks"), after.Histogram("parallel_coalesce_batch_tasks"); h1 != nil {
		tasks = h1.Sum
		if h0 != nil {
			tasks -= h0.Sum
		}
	}
	rec.set("parallel.coalesce_mean_batch", ratio(tasks, batches))

	rec.set("transport.roundtrip_ms", ms(med(spanRoundtrip)))
	var over []float64
	var overSum time.Duration
	for _, d := range out.overhead {
		over = append(over, ms(d))
		if d > 0 {
			overSum += d
		}
	}
	rec.set("transport.overhead_ms", median(over))
	rec.set("transport.dials", counter("transport_dial_total", obs.L("outcome", "ok")))
	retries := 0.0
	for _, c := range after.Counters {
		if c.Name == "transport_retries_total" {
			retries += float64(c.Value - before.Counter(c.Name, obs.L("cause", c.Labels["cause"])))
		}
	}
	rec.set("transport.retries", retries)
	rec.set("svc.admit_us", ratio(us(sums["svc.admit"]), float64(counts["svc.admit"])))
	rec.set("svc.shed_count", counter("transport_server_shed_total"))

	lat := msAll(t.latency)
	rec.set("load.measured_queries", float64(len(lat)))
	rec.set("load.fail_share", ratio(float64(t.failed), float64(t.attempted)))
	rss, err := peakRSSMB()
	if err != nil {
		rss = 0 // no /proc: the figure is informative only
	}
	rec.set("load.peak_rss_mb", rss)
	p90, err := percentileChecked(lat, 90)
	if err != nil {
		p90 = 0 // too few samples for a p90; load.query_tail_ms says what they do support
	}
	rec.set("load.query_p90_ms", p90)
	tail := pickTail(len(lat))
	rec.set("load.query_tail_ms", percentile(lat, tail))
	rec.set("load.query_tail_pct", tail)
	rec.set("load.sched_lag_p90_ms", percentile(msAll(t.lags), 90))
	achieved := 1.0
	if w.OpenRate > 0 {
		achieved = float64(len(lat)) / ph.window.Seconds() / w.OpenRate
	}
	rec.set("load.achieved_over_offered", achieved)

	rec.set("trace.queries", float64(out.queries))
	rec.set("trace.lsp_coverage", coverage(spans, spanReplayLSP, spanLSPw1))
	rec.set("trace.client_coverage", coverage(spans, spanReplayBuild, spanBuild))
	// What recording the spans cost, as a share of the traced queries' time.
	rec.set("trace.overhead_share", ratio(float64(spanCost())*float64(len(spans)), float64(sums[spanQuery])))

	// Self time per layer over the steps that block a query's result: the
	// replayed layer calls, and the transport's share of the round trip.
	self := selfTimes(spans)
	// The parallel layer's own cost is what the wide (and, with a coalescer,
	// deadline-batched) LSP run takes over the serial one, where it does.
	var parSum time.Duration
	if w.Width != 1 {
		for q, d := range perQuery[spanLSPwN] {
			if extra := d - perQuery[spanLSPw1][q]; extra > 0 {
				parSum += extra
			}
		}
	}
	layerSelf := map[string]time.Duration{"transport": overSum, "parallel": parSum}
	total := overSum + parSum
	replayIDs := map[int]bool{}
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "replay.") {
			replayIDs[s.ID] = true
		}
	}
	for _, s := range spans {
		if replayIDs[s.Parent] {
			layerSelf[layerOf(s.Name)] += self[s.ID]
			total += self[s.ID]
		}
	}
	for _, layer := range []string{"sanitize", "gnn", "paillier", "partition", "dummy", "encode", "transport", "parallel"} {
		rec.set("trace.self_share."+layer, ratio(float64(layerSelf[layer]), float64(total)))
	}
}

func secondsAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// liveHeapMB is the heap still reachable after a collection, with the
// whole system (index, keys, pools, caches, connections) still up: the
// memory the configuration retains, free of collector timing.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// processCPU is the CPU time, user and system, this process has used so
// far on all its threads.
func processCPU() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}
