// Command ppgnn runs one privacy-preserving group kNN query end to end —
// either against an in-process LSP over the bundled Sequoia-substitute
// database, or against a remote ppgnn-lsp daemon.
//
// Usage:
//
//	ppgnn [flags] x1,y1 [x2,y2 ...]
//
// Each positional argument is one user's real location in the unit square.
//
//	-k N         POIs to retrieve (default 8)
//	-d N         Privacy I anonymity parameter (default 25)
//	-delta N     Privacy II anonymity parameter (default 100; = d for n=1)
//	-theta0 F    Privacy IV parameter (default 0.05)
//	-agg sum|max|min  aggregate function (default sum)
//	-variant ppgnn|opt|naive  protocol variant (default opt)
//	-keybits N   Paillier modulus size (default 1024)
//	-seed N      RNG seed (default 0 = unseeded: privacy draws keyed from
//	             OS entropy)
//	-connect A   query a remote LSP at address A instead of in-process
//	-tenant T    route -connect sessions to tenant T of a multi-tenant
//	             LSP (default: the default tenant, no tenant frame)
//	-retries N   resend attempts after a transient failure (default 3)
//	-query-timeout D  per-query deadline, retries included (default none)
//	-dataset F   point file for the in-process LSP
//	-no-sanitize disable answer sanitation (PPGNN-NAS)
//	-threshold T require T-of-n users to cooperate for decryption
//	-quorum-t T  run a quorum group session: complete with any T of the
//	             n users responding (in-process members; 0 = shared-memory
//	             group requiring all n)
//	-member-timeout D  per-member exchange deadline for -quorum-t
//	             (default 5s)
//	-members-tcp serve the -quorum-t members over loopback TCP
//	             MemberServers (accept-loop failures are logged) instead
//	             of in-process links
//	-ids         include POI database IDs in the answer
//	-v           print cost accounting
//	-metrics-addr A  serve the JSON metrics snapshot and pprof on A for
//	                 the process lifetime (default off); with -v the
//	                 snapshot is also printed to stderr after the query
//	-trace-out F     after the query, write the client-side flight
//	                 recorder contents (the trace tree: session, collect,
//	                 partition, query, lsp, decrypt spans with closed-enum
//	                 attributes only) as JSON to file F. Every query is
//	                 traced; with -connect the trace id rides a FrameTrace
//	                 to the remote LSP, whose flight recorder retains the
//	                 server-side span tree under the same id.
//
// Batch encryption/decryption and the in-process LSP run
// runtime.GOMAXPROCS(0) workers wide; the GOMAXPROCS environment
// variable sets that width.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ppgnn"
	"ppgnn/internal/core"
	"ppgnn/internal/group"
	"ppgnn/internal/obs"
	"ppgnn/internal/transport"
)

func main() {
	k := flag.Int("k", core.DefaultK, "POIs to retrieve")
	d := flag.Int("d", core.DefaultD, "Privacy I parameter d")
	delta := flag.Int("delta", core.DefaultDelta, "Privacy II parameter delta")
	theta0 := flag.Float64("theta0", core.DefaultTheta0, "Privacy IV parameter theta0")
	agg := flag.String("agg", "sum", "aggregate function: sum|max|min")
	variant := flag.String("variant", "opt", "protocol variant: ppgnn|opt|naive")
	keybits := flag.Int("keybits", core.DefaultKeyBits, "Paillier modulus size")
	connect := flag.String("connect", "", "remote LSP address (default: in-process)")
	retries := flag.Int("retries", transport.DefaultMaxRetries, "resend attempts after a transient failure (-1 = none)")
	queryTimeout := flag.Duration("query-timeout", 0, "per-query deadline, retries included (0 = none)")
	datasetPath := flag.String("dataset", "", "point file for the in-process LSP")
	noSanitize := flag.Bool("no-sanitize", false, "disable answer sanitation (PPGNN-NAS)")
	ids := flag.Bool("ids", false, "include POI IDs in the answer")
	verbose := flag.Bool("v", false, "print cost accounting")
	seed := flag.Int64("seed", 0, "RNG seed (0 = keyed from OS entropy)")
	threshold := flag.Int("threshold", 0, "require t-of-n users for decryption (0 = coordinator key)")
	quorumT := flag.Int("quorum-t", 0, "complete with any t-of-n users via a quorum group session (0 = require all)")
	memberTimeout := flag.Duration("member-timeout", group.DefaultMemberTimeout, "per-member exchange deadline for -quorum-t")
	membersTCP := flag.Bool("members-tcp", false, "serve -quorum-t members over loopback TCP MemberServers instead of in-process links")
	tenant := flag.String("tenant", "", "route -connect sessions to this tenant of a multi-tenant LSP (default: the default tenant)")
	metricsAddr := flag.String("metrics-addr", "", "serve JSON metrics snapshot and pprof on this address (default off)")
	traceOut := flag.String("trace-out", "", "write the client-side trace tree as JSON to this file after the query")
	flag.Parse()

	if *metricsAddr != "" {
		maddr, stop, err := obs.Serve(*metricsAddr, obs.Default())
		if err != nil {
			fatal(err)
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "metrics on http://%s/metrics (pprof under /debug/pprof/)\n", maddr)
	}

	locs, err := parseLocations(flag.Args())
	if err != nil {
		fatal(err)
	}

	p := ppgnn.DefaultParams(len(locs))
	p.K = *k
	p.D = *d
	p.Delta = *delta
	if len(locs) == 1 {
		p.Delta = p.D
	}
	p.Theta0 = *theta0
	p.KeyBits = *keybits
	p.NoSanitize = *noSanitize
	p.IncludeIDs = *ids
	switch *agg {
	case "sum":
		p.Agg = ppgnn.Sum
	case "max":
		p.Agg = ppgnn.Max
	case "min":
		p.Agg = ppgnn.Min
	default:
		fatal(fmt.Errorf("unknown aggregate %q", *agg))
	}
	switch *variant {
	case "ppgnn":
		p.Variant = ppgnn.PPGNN
	case "opt":
		p.Variant = ppgnn.PPGNNOPT
	case "naive":
		p.Variant = ppgnn.Naive
	default:
		fatal(fmt.Errorf("unknown variant %q", *variant))
	}

	var rng *rand.Rand
	if *seed != 0 {
		rng = rand.New(rand.NewSource(*seed))
	}
	// runQuery abstracts over the two rosters: shared memory and links.
	var runQuery func(svc ppgnn.Service, meter *ppgnn.Meter) (*ppgnn.Result, error)
	var deltaPrime int
	var keygen time.Duration
	if *quorumT > 0 {
		// Quorum session: the coordinator at locs[0] collects the other
		// users' contributions over links and completes with any t of the
		// n responding (-threshold additionally makes decryption joint).
		var coord *ppgnn.Coordinator
		var shares []*ppgnn.KeyShare
		if *threshold > 0 {
			coord, shares, err = ppgnn.NewThresholdCoordinator(p, locs[0], rng, *threshold)
		} else {
			coord, err = ppgnn.NewCoordinator(p, locs[0], rng)
		}
		if err != nil {
			fatal(err)
		}
		links := make([]ppgnn.MemberLink, len(locs)-1)
		for i, loc := range locs[1:] {
			// Each member draws on its own goroutine, so each gets its
			// own rng derived from the seed.
			var mrng *rand.Rand
			if rng != nil {
				mrng = rand.New(rand.NewSource(*seed + int64(i) + 1))
			}
			m := ppgnn.NewGroupMember(loc, mrng)
			if shares != nil {
				m.TK, m.Share = coord.TK, shares[i]
			}
			if *membersTCP {
				// Each member behind a real loopback MemberServer: the
				// wire path the phones would use, accept-loop health
				// surfaced instead of dying silently.
				srv := transport.NewMemberServer(m)
				member := i + 1
				srv.Logf = func(format string, args ...interface{}) {
					fmt.Fprintf(os.Stderr, "member %d: "+format+"\n", append([]interface{}{member}, args...)...)
				}
				maddr, err := srv.Listen("127.0.0.1:0")
				if err != nil {
					fatal(err)
				}
				defer srv.Close()
				links[i] = ppgnn.DialGroupMember(maddr.String())
			} else {
				links[i] = ppgnn.InProcessMember(m)
			}
		}
		runQuery = func(svc ppgnn.Service, meter *ppgnn.Meter) (*ppgnn.Result, error) {
			sess, err := ppgnn.NewSession(coord, links, ppgnn.SessionConfig{
				Quorum: *quorumT, MemberTimeout: *memberTimeout, Seed: *seed, Meter: meter,
			})
			if err != nil {
				return nil, err
			}
			out, err := sess.Run(context.Background(), svc)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(os.Stderr, "session: %d/%d contributors, %d round(s)\n",
				len(out.Contributors), p.N, out.Rounds)
			return out.Result, nil
		}
		deltaPrime, _ = coord.DeltaPrime(p.N)
		keygen = coord.KeygenTime
	} else {
		var g *ppgnn.Group
		if *threshold > 0 {
			g, err = ppgnn.NewThresholdGroup(p, locs, rng, *threshold)
		} else {
			g, err = ppgnn.NewGroup(p, locs, rng)
		}
		if err != nil {
			fatal(err)
		}
		runQuery = g.Run
		deltaPrime = g.DeltaPrime()
		keygen = g.KeygenTime
	}

	var svc ppgnn.Service
	var meter ppgnn.Meter
	if *connect != "" {
		pool := ppgnn.NewPool(*connect)
		pool.MaxRetries = *retries
		pool.QueryTimeout = *queryTimeout
		pool.Tenant = *tenant
		defer pool.Close()
		svc = pool
	} else {
		pois, err := loadPOIs(*datasetPath)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "loaded %d POIs\n", len(pois))
		server := ppgnn.NewServer(pois, ppgnn.UnitSpace)
		server.Workers = runtime.GOMAXPROCS(0)
		svc = ppgnn.LocalMetered(server, &meter)
	}

	start := time.Now()
	res, err := runQuery(svc, &meter)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)

	fmt.Printf("query: n=%d k=%d d=%d delta=%d (delta'=%d) theta0=%v agg=%s variant=%v\n",
		p.N, p.K, p.D, p.Delta, deltaPrime, p.Theta0, *agg, p.Variant)
	fmt.Printf("answer (%d POIs after sanitation):\n", len(res.Points))
	for i, pt := range res.Points {
		if p.IncludeIDs {
			fmt.Printf("  %2d. poi#%-8d (%.6f, %.6f)\n", i+1, res.Records[i].ID, pt.X, pt.Y)
		} else {
			fmt.Printf("  %2d. (%.6f, %.6f)\n", i+1, pt.X, pt.Y)
		}
	}
	if *traceOut != "" {
		// The flight recorder only holds closed-enum span trees, so the
		// file is as privacy-safe as the /traces endpoint it mirrors.
		d := obs.Default().Recorder().Dump("query")
		if err := os.WriteFile(*traceOut, append(d.JSON(), '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	if *verbose {
		fmt.Printf("total wall time: %v\n", elapsed.Round(time.Millisecond))
		fmt.Printf("costs: %v\n", meter.Snapshot())
		fmt.Printf("one-time keygen: %v\n", keygen.Round(time.Millisecond))
		if b, err := json.MarshalIndent(obs.Default().Snapshot(), "", "  "); err == nil {
			fmt.Fprintf(os.Stderr, "metrics: %s\n", b)
		}
	}
}

func parseLocations(args []string) ([]ppgnn.Point, error) {
	if len(args) == 0 {
		return nil, fmt.Errorf("no user locations given; usage: ppgnn [flags] x1,y1 [x2,y2 ...]")
	}
	out := make([]ppgnn.Point, len(args))
	for i, a := range args {
		parts := strings.Split(a, ",")
		if len(parts) != 2 {
			return nil, fmt.Errorf("location %q: want x,y", a)
		}
		x, err := strconv.ParseFloat(parts[0], 64)
		if err != nil {
			return nil, fmt.Errorf("location %q: %w", a, err)
		}
		y, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, fmt.Errorf("location %q: %w", a, err)
		}
		out[i] = ppgnn.Point{X: x, Y: y}
	}
	return out, nil
}

func loadPOIs(path string) ([]ppgnn.POI, error) {
	if path == "" {
		return ppgnn.SequoiaDataset(), nil
	}
	return ppgnn.LoadDatasetFile(path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ppgnn:", err)
	os.Exit(1)
}
