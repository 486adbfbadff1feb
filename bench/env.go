package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"ppgnn/internal/core"
	"ppgnn/internal/cost"
	"ppgnn/internal/dataset"
	"ppgnn/internal/geo"
	"ppgnn/internal/gnn"
	"ppgnn/internal/paillier"
	"ppgnn/internal/parallel"
	"ppgnn/internal/partition"
	"ppgnn/internal/rtree"
	"ppgnn/internal/svc"
	"ppgnn/internal/transport"
)

// Database seeds. The POI databases are the fixed corpus; -seed drives
// everything the users do (locations, dummies, churn, arrivals).
const syntheticSeed = 1

var (
	tenantIDs   = []string{"alpha", "beta"}
	tenantSeeds = []int64{11, 12}
)

// env is one fully set-up system under test: LSP(s), server, and clients,
// all in this process.
type env struct {
	w    workload
	seed int64

	lsps     []*core.LSP    // one per tenant; one in total without Service
	items    [][]rtree.Item // each LSP's database as loaded, for the oracles
	srv      *transport.Server
	service  *svc.Service
	co       *parallel.Coalescer
	addr     string
	clients  []*client
	stops    []func()           // refillers
	encCache *paillier.EncCache // shared by every group when w.Service

	churn *churnState // nil unless w.Churn > 0
}

// client is one connection's worth of users: a transport.Pool of size 1
// and the pre-keyed groups that take turns on it.
type client struct {
	e      *env
	tenant int
	groups []*group
	pool   *transport.Pool
	wire   *wireCounter
	meter  *cost.Meter
	turn   int
}

// group is a core.Group plus what the oracle needs to know about it.
type group struct {
	g      *core.Group
	real   []geo.Point
	part   partition.Params
	tenant int
	base   []gnn.Result // plaintext top-k over the database as loaded
}

func (c *client) nextGroup() *group {
	g := c.groups[c.turn%len(c.groups)]
	c.turn++
	return g
}

// setup builds the whole system: dataset, index build, listener, key
// generation, pool fill.
func setup(w workload, seed int64) (*env, error) {
	e := &env{w: w, seed: seed}
	// The clients' batch encryptions fan out over the process-default pool.
	parallel.SetDefaultWorkers(w.Width)
	if err := e.startServer(); err != nil {
		e.close()
		return nil, err
	}
	if w.Service {
		e.encCache = paillier.NewEncCache(1024)
	}
	for ci := 0; ci < w.Clients; ci++ {
		c := &client{e: e, wire: &wireCounter{}, meter: &cost.Meter{}}
		if w.Service {
			c.tenant = ci % len(tenantIDs)
		}
		c.pool = transport.NewPool(e.addr)
		c.pool.Size = 1
		c.pool.Seed = seed + int64(ci)
		c.pool.DialFunc = dialCounted(c.wire)
		if w.Service {
			c.pool.Tenant = tenantIDs[c.tenant]
		}
		e.clients = append(e.clients, c)
		for gi := 0; gi < w.Groups; gi++ {
			g, err := e.newGroup(c, seed*1000003+int64(ci)*1009+int64(gi)*17)
			if err != nil {
				e.close()
				return nil, err
			}
			c.groups = append(c.groups, g)
		}
	}
	return e, nil
}

func (e *env) startServer() error {
	w := e.w
	if w.Service {
		cfg := &svc.Config{}
		for i, id := range tenantIDs {
			cfg.Tenants = append(cfg.Tenants, svc.TenantConfig{
				ID: id, Synthetic: w.POIs, Seed: tenantSeeds[i],
				MaxSessions: 8, Rerandomize: w.Rerandomize,
			})
		}
		if err := cfg.Validate(); err != nil {
			return err
		}
		service, err := svc.New(cfg, svc.Options{Workers: w.Width})
		if err != nil {
			return err
		}
		e.service = service
		for _, id := range tenantIDs {
			grant, err := service.Admit(id)
			if err != nil {
				return fmt.Errorf("tenant %s: %w", id, err)
			}
			e.lsps = append(e.lsps, grant.LSP)
			grant.Release()
		}
		e.co = parallel.NewCoalescer(0, parallel.CoalesceOptions{})
		e.srv = transport.NewServer(nil)
		e.srv.Admitter = service
		e.srv.OnSessionPanic = service.OnSessionPanic
		e.srv.Coalescer = e.co
	} else {
		var items []rtree.Item
		if w.POIs > 0 {
			items = dataset.Synthetic(syntheticSeed, w.POIs)
		} else {
			items = dataset.Sequoia(dataset.DefaultSeed)
		}
		// Bulk loading reorders its input; the oracle's copy stays as loaded.
		e.items = [][]rtree.Item{append([]rtree.Item(nil), items...)}
		lsp := core.NewLSP(items, geo.UnitRect)
		lsp.Workers = w.Width
		lsp.Rerandomize = w.Rerandomize
		e.lsps = []*core.LSP{lsp}
		e.srv = transport.NewServer(lsp)
	}
	addr, err := e.srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	e.addr = addr.String()
	return nil
}

func (e *env) newGroup(c *client, seed int64) (*group, error) {
	w := e.w
	rng := rand.New(rand.NewSource(seed))
	real := make([]geo.Point, w.N)
	for i := range real {
		real[i] = geo.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	p := w.params()
	g, err := core.NewGroup(p, real, rng)
	if err != nil {
		return nil, err
	}
	part, err := partition.Solve(p.N, p.D, p.Delta)
	if err != nil {
		return nil, err
	}
	if w.Service {
		g.CacheSets = true
		g.EncCache = e.encCache
		// Four queries' worth of pooled factors up front; the refiller
		// keeps two queries' worth as its floor from then on. It refills on
		// one core: in this one-process benchmark a two-wide refill, which
		// every query triggers for itself, would take both cores from the
		// LSP exactly while it serves that query.
		if _, err := g.Precompute(4 * part.DeltaPrime); err != nil {
			return nil, err
		}
		stop, err := g.StartRefill(paillier.RefillerOptions{Min: 2 * part.DeltaPrime, Pool: parallel.New(1)})
		if err != nil {
			return nil, err
		}
		e.stops = append(e.stops, stop)
	}
	return &group{g: g, real: real, part: part, tenant: c.tenant}, nil
}

// close stops everything setup started and waits for it.
func (e *env) close() {
	for _, stop := range e.stops {
		stop()
	}
	for _, c := range e.clients {
		c.pool.Close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
	if e.co != nil {
		e.co.Close()
	}
	if e.service != nil {
		e.service.Close()
	}
}

// keygen is the time the groups' key generation took, as core.NewGroup
// recorded it.
func (e *env) keygen() time.Duration {
	var d time.Duration
	for _, c := range e.clients {
		for _, g := range c.groups {
			d += g.g.KeygenTime
		}
	}
	return d
}

// timedSetups sets the system up reps times, tearing each but the last
// down again, and returns the last one with every set-up's time, key
// generation taken out, and every set-up's key generation time. The prime
// search behind a key is the standard library's and mostly luck — a
// 2048-bit key takes 0.1 to 0.4 s — so it is reported on its own
// (load.keygen_ms) and setup_s is what the repository's code does.
func timedSetups(w workload, seed int64, reps int) (e *env, setups, keygens []time.Duration, err error) {
	for i := 0; ; i++ {
		start := time.Now()
		e, err = setup(w, seed)
		if err != nil {
			return nil, nil, nil, err
		}
		setups = append(setups, time.Since(start)-e.keygen())
		keygens = append(keygens, e.keygen())
		if i == reps-1 {
			return e, setups, keygens, nil
		}
		e.close()
		e = nil
		runtime.GC()
	}
}
