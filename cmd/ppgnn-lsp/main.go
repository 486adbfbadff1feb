// Command ppgnn-lsp runs a location-based service provider as a TCP
// daemon. Groups query it with cmd/ppgnn -connect or the library's Dial.
//
// Usage:
//
//	ppgnn-lsp [flags]
//
//	-addr A      listen address (default :9042)
//	-config F    multi-tenant service config (JSON; see README). Enables
//	             the lifecycle layer: named tenants with per-tenant
//	             quotas, SIGHUP hot reload, adaptive admission control,
//	             /healthz + /readyz on the metrics address, and the
//	             crash-budget watchdog. Mutually exclusive with -dataset
//	             and -seed, which configure the single-tenant legacy mode.
//	-dataset F   point file (default: the bundled Sequoia substitute)
//	-seed N      sanitation RNG seed (single-tenant mode; default 1)
//	-coalesce    merge the homomorphic batch work of concurrently
//	             admitted sessions into shared worker submissions
//	             (DESIGN.md §15). Per-session answers stay byte-identical
//	             to the uncoalesced path; the win is steady-state QPS on
//	             multi-core hosts.
//	-quiet       suppress per-connection logs
//	-max-conns N      connection limit; excess clients are shed with a
//	                  retryable busy reply (default 0 = unlimited)
//	-max-locations N  location frames accepted per session (default 4096)
//	-read-timeout D   per-frame read deadline within a session (default 30s)
//	-drain-timeout D  grace for in-flight sessions on shutdown (default 10s)
//	-crash-budget N   session panics within -crash-window that trip the
//	                  watchdog and fail the process (default 5; -1 disables)
//	-crash-window D   watchdog sliding window (default 1m)
//	-metrics-addr A   serve the JSON metrics snapshot, pprof, and (with
//	                  -config) /healthz + /readyz on A
//	                  (e.g. 127.0.0.1:9043; default off). The snapshot is
//	                  privacy-safe by construction: DESIGN.md §9.
//	-trace-sample F   head-sampling rate in [0,1] for locally originated
//	                  traces (default 1). Wire-propagated trace ids are
//	                  always honoured. The flight recorder serves the
//	                  retained traces at /traces and /traces/slow on the
//	                  metrics address; attributes are closed-enum buckets
//	                  only (DESIGN.md §9).
//	-trace-slow D     root duration at which a trace is retained in the
//	                  always-kept slow/failed reservoir (default 1s)
//
// Candidate queries and the homomorphic selection run
// runtime.GOMAXPROCS(0) workers wide; the GOMAXPROCS environment
// variable sets that width.
//
// Signals: SIGHUP re-reads -config and swaps tenants atomically (a
// rejected config keeps the old epoch serving); SIGINT/SIGTERM drain.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"ppgnn"
	"ppgnn/internal/core"
	"ppgnn/internal/obs"
	"ppgnn/internal/parallel"
	"ppgnn/internal/svc"
	"ppgnn/internal/transport"
)

func main() {
	addr := flag.String("addr", ":9042", "listen address")
	configPath := flag.String("config", "", "multi-tenant service config (JSON); enables SIGHUP reload and admission control")
	datasetPath := flag.String("dataset", "", "point file (default: Sequoia substitute; single-tenant mode)")
	seed := flag.Int64("seed", core.DefaultSanitizeSeed, "sanitation RNG seed (single-tenant mode)")
	coalesce := flag.Bool("coalesce", false, "merge concurrent sessions' homomorphic batches into shared submissions")
	quiet := flag.Bool("quiet", false, "suppress per-connection logs")
	maxConns := flag.Int("max-conns", 0, "connection limit, 0 = unlimited")
	maxLocations := flag.Int("max-locations", transport.DefaultMaxLocations, "location frames accepted per session")
	readTimeout := flag.Duration("read-timeout", transport.DefaultReadTimeout, "per-frame read deadline within a session")
	drainTimeout := flag.Duration("drain-timeout", transport.DefaultDrainTimeout, "grace for in-flight sessions on shutdown")
	crashBudget := flag.Int("crash-budget", svc.DefaultCrashBudget, "session panics within -crash-window that fail the process (-1 disables)")
	crashWindow := flag.Duration("crash-window", svc.DefaultCrashWindow, "crash-budget watchdog window")
	metricsAddr := flag.String("metrics-addr", "", "serve JSON metrics snapshot, pprof, and health endpoints on this address (default off)")
	traceSample := flag.Float64("trace-sample", 1, "head-sampling rate in [0,1] for locally originated traces")
	traceSlow := flag.Duration("trace-slow", obs.DefaultSlowThreshold, "root duration at which a trace enters the slow/failed reservoir")
	flag.Parse()
	if *configPath != "" && (*datasetPath != "" || *seed != core.DefaultSanitizeSeed) {
		fatal(fmt.Errorf("-config is the multi-tenant mode; -dataset and -seed belong to the single-tenant mode (use per-tenant config fields)"))
	}

	// The flight recorder hangs off the default registry the transport
	// layer records into; configure it before any session can start.
	recorder := obs.Default().Recorder()
	recorder.SetSampleRate(*traceSample)
	recorder.SetSlowThreshold(*traceSlow)

	// The library keeps Workers 0 = sequential (the paper's cost
	// accounting); the daemon uses every core GOMAXPROCS grants it, as
	// the process-default pool already does.
	poolWidth := runtime.GOMAXPROCS(0)

	var srv *transport.Server
	var service *svc.Service
	if *configPath != "" {
		cfg, err := svc.LoadConfigFile(*configPath)
		if err != nil {
			fatal(err)
		}
		service, err = svc.New(cfg, svc.Options{
			ConfigPath:  *configPath,
			Workers:     poolWidth,
			CrashBudget: *crashBudget,
			CrashWindow: *crashWindow,
			Logf:        log.Printf,
			// Incident dumps (watchdog trip, rejected reload) land on
			// stderr so the surrounding traces survive a process death.
			TraceSink: func(d *obs.TraceDump) {
				log.Printf("ppgnn-lsp: flight recorder dump (%s): %d recent, %d slow/failed traces",
					d.Reason, len(d.Recent), len(d.Slow))
				os.Stderr.Write(append(d.JSON(), '\n'))
			},
		})
		if err != nil {
			fatal(err)
		}
		srv = transport.NewServer(nil)
		srv.Admitter = service
		srv.OnSessionPanic = service.OnSessionPanic
	} else {
		var pois []ppgnn.POI
		var err error
		if *datasetPath != "" {
			pois, err = ppgnn.LoadDatasetFile(*datasetPath)
			if err != nil {
				fatal(err)
			}
		} else {
			pois = ppgnn.SequoiaDataset()
		}
		server := ppgnn.NewServer(pois, ppgnn.UnitSpace)
		server.Workers = poolWidth
		server.SanitizeSeed = *seed
		srv = transport.NewServer(server)
		log.Printf("ppgnn-lsp: single-tenant mode, %d POIs", len(pois))
	}
	if *coalesce {
		co := parallel.NewCoalescer(poolWidth, parallel.CoalesceOptions{})
		defer co.Close()
		srv.Coalescer = co
		log.Printf("ppgnn-lsp: cross-session coalescing on (width %d)", poolWidth)
	}
	srv.MaxConns = *maxConns
	srv.MaxLocations = *maxLocations
	srv.ReadTimeout = *readTimeout
	srv.DrainTimeout = *drainTimeout
	if !*quiet {
		srv.Logf = log.Printf
	}
	if *metricsAddr != "" {
		maddr, stop, err := obs.ServeMux(*metricsAddr, obs.Default(), func(mux *http.ServeMux) {
			if service != nil {
				service.RegisterHealth(mux)
			}
		})
		if err != nil {
			fatal(err)
		}
		defer stop()
		if service != nil {
			log.Printf("ppgnn-lsp: metrics on http://%s/metrics, health on /healthz and /readyz (pprof under /debug/pprof/)", maddr)
		} else {
			log.Printf("ppgnn-lsp: metrics on http://%s/metrics (pprof under /debug/pprof/)", maddr)
		}
	}
	bound, err := srv.Listen(*addr)
	if err != nil {
		fatal(err)
	}
	if service != nil {
		log.Printf("ppgnn-lsp: serving on %s (workers=%d max-conns=%d, SIGHUP reloads %s)",
			bound, poolWidth, *maxConns, *configPath)
	} else {
		log.Printf("ppgnn-lsp: serving on %s (workers=%d max-conns=%d)", bound, poolWidth, *maxConns)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	hup := make(chan os.Signal, 4)
	signal.Notify(hup, syscall.SIGHUP)

	var fatalCh <-chan struct{}
	if service != nil {
		fatalCh = service.Fatal()
	}
	for {
		select {
		case <-hup:
			if service == nil {
				log.Printf("ppgnn-lsp: SIGHUP ignored (no -config; single-tenant mode has nothing to reload)")
				continue
			}
			if err := service.Reload(); err != nil {
				log.Printf("ppgnn-lsp: reload rejected, keeping current epoch: %v", err)
			} else {
				log.Printf("ppgnn-lsp: reload applied, epoch %d", service.Epoch())
			}
			continue
		case <-fatalCh:
			log.Printf("ppgnn-lsp: crash-budget watchdog tripped, draining and exiting")
			srv.Close()
			os.Exit(1)
		case <-stop:
		}
		break
	}
	log.Printf("ppgnn-lsp: draining (up to %v)", *drainTimeout)
	if service != nil {
		service.Close()
	}
	if err := srv.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ppgnn-lsp:", err)
	os.Exit(1)
}
